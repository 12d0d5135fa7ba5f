package bench

import (
	"context"
	"fmt"

	"goldfish/internal/data"
	"goldfish/internal/metrics"
	"goldfish/internal/model"
	"goldfish/internal/unlearn"
)

// sweepPoint holds the final model states of every method at one deletion
// rate, plus the probe data needed to evaluate them.
type sweepPoint struct {
	Rate      int // percent
	Origin    []float64
	Ours      []float64
	B1        []float64
	B3        []float64
	Triggered *data.Dataset
	Target    int
}

// runBackdoorPoint executes the full origin → unlearn pipeline for one
// deletion rate: client 0 of 5 is poisoned at the given rate, the origin
// model is trained on the contaminated data, then Goldfish, B1 and B3 each
// unlearn the poisoned rows.
func (s *setup) runBackdoorPoint(ctx context.Context, rate int) (*sweepPoint, error) {
	parts, err := s.partitionIID()
	if err != nil {
		return nil, err
	}
	bd := data.DefaultBackdoor()
	poisoned, err := s.poisonClient0(parts, bd, rate)
	if err != nil {
		return nil, err
	}
	triggered, err := bd.TriggerCopy(s.test)
	if err != nil {
		return nil, err
	}
	// Origin + Ours share one federation: train on poisoned data, snapshot,
	// then submit the deletion request and keep running (Algorithm 1).
	cfg := s.clientConfig()
	f, err := unlearn.NewFederation(unlearn.Config{Client: cfg}, parts)
	if err != nil {
		return nil, err
	}
	if err := f.Run(ctx, s.rounds, nil); err != nil {
		return nil, err
	}
	origin := f.Global()
	if err := f.RequestDeletion(0, poisoned); err != nil {
		return nil, err
	}
	if err := f.Run(ctx, s.rounds, nil); err != nil {
		return nil, err
	}
	ours := f.Global()

	b1, err := s.retrainBaseline(ctx, "retrain", cfg, parts, poisoned, nil)
	if err != nil {
		return nil, err
	}
	// B3 starts from the contaminated model rather than from scratch.
	b3, err := s.runStrategy(ctx, "incompetent-teacher", cfg, parts, origin, poisoned, nil)
	if err != nil {
		return nil, err
	}
	return &sweepPoint{
		Rate:      rate,
		Origin:    origin,
		Ours:      ours,
		B1:        b1,
		B3:        b3,
		Triggered: triggered,
		Target:    bd.TargetLabel,
	}, nil
}

// poisonClient0 backdoors client 0's partition in place. The paper's
// deletion rate is a fraction of the whole training set, all of it held
// (and backdoored) by one client; translate it into a fraction of client
// 0's local data, capped so the client keeps a remainder to retrain on.
func (s *setup) poisonClient0(parts []*data.Dataset, bd data.BackdoorConfig, ratePct int) ([]int, error) {
	want := s.train.Len() * ratePct / 100
	if want < 1 {
		want = 1
	}
	if maxRows := parts[0].Len() * 4 / 5; want > maxRows {
		want = maxRows
	}
	frac := float64(want) / float64(parts[0].Len())
	return bd.Poison(parts[0], frac, s.rng)
}

// runBackdoorSweep runs runBackdoorPoint for every deletion rate.
func (s *setup) runBackdoorSweep(ctx context.Context) ([]*sweepPoint, error) {
	rates := s.opts.DeletionRates
	if len(rates) == 0 {
		rates = defaultRates(s.opts.Scale)
	}
	points := make([]*sweepPoint, 0, len(rates))
	for _, r := range rates {
		if r <= 0 || r >= 100 {
			return nil, fmt.Errorf("bench: deletion rate %d%% out of (0,100)", r)
		}
		p, err := s.runBackdoorPoint(ctx, r)
		if err != nil {
			return nil, fmt.Errorf("bench: rate %d%%: %w", r, err)
		}
		points = append(points, p)
	}
	return points, nil
}

// tableBackdoor builds the Run function for Tables III–VI: accuracy and
// backdoor ASR per deletion rate for origin/Ours/B1/B3 on one dataset.
func tableBackdoor(dataset string) func(Options) (*Report, error) {
	return func(opts Options) (*Report, error) {
		s, err := newSetup(dataset, archFor(dataset), opts)
		if err != nil {
			return nil, err
		}
		points, err := s.runBackdoorSweep(context.Background())
		if err != nil {
			return nil, err
		}
		tbl := Table{
			Title: fmt.Sprintf("Accuracy rate and backdoor attack success rate on the %s dataset (%%)", dataset),
			Columns: []string{"Rate",
				"origin acc", "origin backdoor",
				"ours acc", "ours backdoor",
				"B1 acc", "B1 backdoor",
				"B3 acc", "B3 backdoor"},
		}
		for _, p := range points {
			row := []string{fmt.Sprintf("%d", p.Rate)}
			for _, state := range [][]float64{p.Origin, p.Ours, p.B1, p.B3} {
				acc, err := s.accuracy(state)
				if err != nil {
					return nil, err
				}
				asr, err := s.asr(state, p.Triggered, p.Target)
				if err != nil {
					return nil, err
				}
				row = append(row, pct(acc), pct(asr))
			}
			tbl.Rows = append(tbl.Rows, row)
		}
		return &Report{ID: "table-" + dataset, Title: tbl.Title, Tables: []Table{tbl}}, nil
	}
}

// RunFig5 regenerates Fig. 5: backdoor ASR vs deletion rate, one sub-figure
// per dataset/model combination. Reduced scales run three combinations;
// medium/paper scales run all five of the paper's.
func RunFig5(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	combos := fig45Combos(opts.Scale)
	report := &Report{ID: "fig5", Title: "Backdoor attack success rate under different deletion rates"}
	for _, c := range combos {
		s, err := newSetup(c.dataset, c.arch, opts)
		if err != nil {
			return nil, err
		}
		points, err := s.runBackdoorSweep(context.Background())
		if err != nil {
			return nil, fmt.Errorf("bench: %s/%s: %w", c.dataset, c.arch, err)
		}
		fig := Figure{
			Title:  fmt.Sprintf("Fig.5 %s (%s)", c.dataset, c.arch),
			XLabel: "deletion rate (%)",
			YLabel: "backdoor success rate",
		}
		methods := []struct {
			name  string
			state func(*sweepPoint) []float64
		}{
			{"origin", func(p *sweepPoint) []float64 { return p.Origin }},
			{"ours", func(p *sweepPoint) []float64 { return p.Ours }},
			{"B1", func(p *sweepPoint) []float64 { return p.B1 }},
			{"B3", func(p *sweepPoint) []float64 { return p.B3 }},
		}
		for _, m := range methods {
			series := Series{Name: m.name}
			for _, p := range points {
				asr, err := s.asr(m.state(p), p.Triggered, p.Target)
				if err != nil {
					return nil, err
				}
				series.X = append(series.X, float64(p.Rate))
				series.Y = append(series.Y, asr)
			}
			fig.Series = append(fig.Series, series)
		}
		report.Figures = append(report.Figures, fig)
	}
	return report, nil
}

// fig45Combos lists the dataset/model pairings of Figs. 4 and 5.
type comboSpec struct {
	dataset string
	arch    model.Arch
}

func fig45Combos(scale data.Scale) []comboSpec {
	all := []comboSpec{
		{"mnist", model.ArchLeNet5},
		{"fmnist", model.ArchLeNet5},
		{"cifar10", model.ArchLeNet5Mod},
		{"cifar10", model.ArchResNet32},
		{"cifar100", model.ArchResNet56},
	}
	switch scale {
	case data.ScaleMedium, data.ScalePaper:
		return all
	default:
		// Keep one ResNet combination so residual models stay covered.
		return []comboSpec{all[0], all[2], all[3]}
	}
}

// tableDivergence builds the Run function for Tables VII–IX: JSD and L2 of
// Ours and B3 against the B1 reference, and the Welch t-test p-value of
// Ours and B3 against the origin model.
func tableDivergence(dataset string) func(Options) (*Report, error) {
	return func(opts Options) (*Report, error) {
		s, err := newSetup(dataset, archFor(dataset), opts)
		if err != nil {
			return nil, err
		}
		points, err := s.runBackdoorSweep(context.Background())
		if err != nil {
			return nil, err
		}
		tbl := Table{
			Title: fmt.Sprintf("Evaluation based on JSD, L2 and t-test on the %s dataset", dataset),
			Columns: []string{"Rate",
				"B3 JSD", "B3 L2", "B3 T-test",
				"Ours JSD", "Ours L2", "Ours T-test"},
		}
		for _, p := range points {
			ref, err := s.evalNet(p.B1)
			if err != nil {
				return nil, err
			}
			orig, err := s.evalNet(p.Origin)
			if err != nil {
				return nil, err
			}
			row := []string{fmt.Sprintf("%d", p.Rate)}
			for _, state := range [][]float64{p.B3, p.Ours} {
				net, err := s.evalNet(state)
				if err != nil {
					return nil, err
				}
				div, err := metrics.ModelDivergence(net, ref, s.test, 0)
				if err != nil {
					return nil, err
				}
				tt, err := metrics.ConfidenceTTest(net, orig, s.test, 0)
				if err != nil {
					return nil, err
				}
				row = append(row,
					fmt.Sprintf("%.2f", div.JSD),
					fmt.Sprintf("%.2f", div.L2),
					fmt.Sprintf("%.2f", tt.P))
			}
			tbl.Rows = append(tbl.Rows, row)
		}
		return &Report{ID: "divergence-" + dataset, Title: tbl.Title, Tables: []Table{tbl}}, nil
	}
}
