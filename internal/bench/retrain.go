package bench

import (
	"context"
	"fmt"

	"goldfish/internal/unlearn"
)

// RunFig4 regenerates Fig. 4: test-accuracy curves while retraining after a
// deletion request, comparing Goldfish ("ours") against B1 (retrain from
// scratch) and B2 (FIM-guided rapid retraining), one sub-figure per
// dataset/model combination.
func RunFig4(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	report := &Report{ID: "fig4", Title: "Accuracy while retraining after deletion (ours vs B1 vs B2)"}
	speed := Table{
		Title:   "Retraining speed: rounds to reach the half-way accuracy mark (lower is faster)",
		Columns: []string{"combo", "threshold", "ours", "B2", "B1"},
	}
	for _, c := range fig45Combos(opts.Scale) {
		fig, err := runFig4Combo(c, opts)
		if err != nil {
			return nil, fmt.Errorf("bench: %s/%s: %w", c.dataset, c.arch, err)
		}
		report.Figures = append(report.Figures, *fig)
		speed.Rows = append(speed.Rows, speedRow(fmt.Sprintf("%s/%s", c.dataset, c.arch), fig.Series))
	}
	report.Tables = append(report.Tables, speed)
	return report, nil
}

// speedRow summarizes a Fig. 4 sub-figure as rounds-to-threshold, where the
// threshold is half the best accuracy any method reaches — the paper's
// efficiency claim in one number per method.
func speedRow(combo string, series []Series) []string {
	best := 0.0
	for _, s := range series {
		for _, y := range s.Y {
			if y > best {
				best = y
			}
		}
	}
	threshold := best / 2
	row := []string{combo, fmt.Sprintf("%.3f", threshold)}
	for _, name := range []string{"ours", "B2", "B1"} {
		cell := "-"
		for _, s := range series {
			if s.Name != name {
				continue
			}
			for i, y := range s.Y {
				if y >= threshold {
					cell = fmt.Sprintf("%.0f", s.X[i])
					break
				}
			}
		}
		row = append(row, cell)
	}
	return row
}

func runFig4Combo(c comboSpec, opts Options) (*Figure, error) {
	s, err := newSetup(c.dataset, c.arch, opts)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	parts, err := s.partitionIID()
	if err != nil {
		return nil, err
	}
	// Delete 5% of client 0's data (plain rows; Fig. 4 studies retraining
	// speed, not backdoors).
	n := parts[0].Len() / 20
	if n == 0 {
		n = 1
	}
	rows := s.rng.Perm(parts[0].Len())[:n]

	// Train the pre-deletion global model; it becomes Goldfish's teacher.
	cfg := s.clientConfig()
	f, err := unlearn.NewFederation(unlearn.Config{Client: cfg}, parts)
	if err != nil {
		return nil, err
	}
	if err := f.Run(ctx, s.rounds, nil); err != nil {
		return nil, err
	}

	// Ours: continue the federation through the unlearning rounds.
	if err := f.RequestDeletion(0, rows); err != nil {
		return nil, err
	}
	ours := &accuracyCurve{s: s, series: Series{Name: "ours"}}
	if err := f.Run(ctx, s.rounds, ours.hook); err != nil {
		return nil, err
	}

	// B2: rapid retraining (preconditioned updates want a smaller LR).
	cfgB2 := cfg
	cfgB2.Opt.LR /= 5
	b2 := &accuracyCurve{s: s, series: Series{Name: "B2"}}
	if _, err := s.retrainBaseline(ctx, "fisher", cfgB2, parts, rows, b2.hook); err != nil {
		return nil, err
	}

	// B1: retrain from scratch.
	b1 := &accuracyCurve{s: s, series: Series{Name: "B1"}}
	if _, err := s.retrainBaseline(ctx, "retrain", cfg, parts, rows, b1.hook); err != nil {
		return nil, err
	}

	fig := &Figure{
		Title:  fmt.Sprintf("Fig.4 %s (%s)", c.dataset, c.arch),
		XLabel: "retraining round",
		YLabel: "test accuracy",
	}
	for _, curve := range []*accuracyCurve{ours, b2, b1} {
		if curve.err != nil {
			return nil, curve.err
		}
		fig.Series = append(fig.Series, curve.series)
	}
	return fig, nil
}

// accuracyCurve records the global model's test accuracy after every round
// as a Series; pass hook as the round callback. err keeps the first
// evaluation failure.
type accuracyCurve struct {
	s      *setup
	series Series
	err    error
}

func (c *accuracyCurve) hook(rs unlearn.RoundStats) {
	if c.err != nil {
		return
	}
	acc, err := c.s.accuracy(rs.Global)
	if err != nil {
		c.err = err
		return
	}
	c.series.X = append(c.series.X, float64(len(c.series.X)+1))
	c.series.Y = append(c.series.Y, acc)
}
