package bench

import (
	"context"
	"fmt"
	"math/rand"

	"goldfish/internal/core"
	"goldfish/internal/data"
	"goldfish/internal/fed"
	"goldfish/internal/loss"
	"goldfish/internal/metrics"
	"goldfish/internal/model"
	"goldfish/internal/optim"
	"goldfish/internal/unlearn"
)

// clientCounts is the paper's client-count sweep (§IV-A: C ∈ {5, 15, 25}).
var clientCounts = []int{5, 15, 25}

// heteroSkew is the heterogeneity level used by Fig. 8 / Table XII.
const heteroSkew = 0.2

// runAggregation trains one federation per aggregator over the given
// partitions, recording global accuracy per round, and (when probe is not
// nil) min/max local-model accuracy for the error bars of Fig. 8.
func runAggregation(s *setup, parts []*data.Dataset, agg fed.Aggregator, probe *data.Dataset) (global Series, minLocal, maxLocal Series, err error) {
	cfg := unlearn.Config{Client: s.clientConfig(), Aggregator: agg}
	if _, ok := agg.(fed.AdaptiveWeight); ok {
		cfg.ServerTest = s.test
	}
	f, err := unlearn.NewFederation(cfg, parts)
	if err != nil {
		return global, minLocal, maxLocal, err
	}
	global = Series{Name: agg.Name()}
	minLocal = Series{Name: agg.Name() + " min-local"}
	maxLocal = Series{Name: agg.Name() + " max-local"}
	var cbErr error
	err = f.Run(context.Background(), s.rounds, func(rs unlearn.RoundStats) {
		acc, aerr := s.accuracy(rs.Global)
		if aerr != nil {
			cbErr = aerr
			return
		}
		x := float64(rs.Round + 1)
		global.X = append(global.X, x)
		global.Y = append(global.Y, acc)
		if probe == nil {
			return
		}
		lo, hi := 1.0, 0.0
		for _, u := range rs.Updates {
			net, nerr := s.evalNet(u.Params)
			if nerr != nil {
				cbErr = nerr
				return
			}
			lacc := metrics.Accuracy(net, probe, 0)
			if lacc < lo {
				lo = lacc
			}
			if lacc > hi {
				hi = lacc
			}
		}
		minLocal.X = append(minLocal.X, x)
		minLocal.Y = append(minLocal.Y, lo)
		maxLocal.X = append(maxLocal.X, x)
		maxLocal.Y = append(maxLocal.Y, hi)
	})
	if err == nil {
		err = cbErr
	}
	return global, minLocal, maxLocal, err
}

// probeSubset bounds the per-client evaluation cost of the Fig. 8 error
// bars.
func probeSubset(test *data.Dataset, n int) *data.Dataset {
	if test.Len() <= n {
		return test
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return test.Subset(idx)
}

// RunFig8 regenerates Fig. 8: FedAvg versus the adaptive-weight aggregation
// under heterogeneous local data for 5/15/25 clients, with min/max local
// accuracy as error-bar series.
func RunFig8(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	s, err := newSetup("mnist", model.ArchLeNet5, opts)
	if err != nil {
		return nil, err
	}
	probe := probeSubset(s.test, 200)
	report := &Report{ID: "fig8", Title: "FedAvg vs adaptive weights with heterogeneous local data"}
	for _, c := range clientCounts {
		parts, err := data.PartitionHeterogeneous(s.train, c, heteroSkew,
			rand.New(rand.NewSource(opts.Seed*131+int64(c))))
		if err != nil {
			return nil, err
		}
		fig := Figure{
			Title:  fmt.Sprintf("Fig.8 heterogeneous, %d clients", c),
			XLabel: "round",
			YLabel: "test accuracy",
		}
		for _, agg := range []fed.Aggregator{fed.FedAvg{}, fed.AdaptiveWeight{}} {
			global, lo, hi, err := runAggregation(s, parts, agg, probe)
			if err != nil {
				return nil, err
			}
			fig.Series = append(fig.Series, global, lo, hi)
		}
		report.Figures = append(report.Figures, fig)
	}
	return report, nil
}

// RunFig9 regenerates Fig. 9: FedAvg versus adaptive weights under IID data
// for 5/15/25 clients — the two should track each other closely.
func RunFig9(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	s, err := newSetup("mnist", model.ArchLeNet5, opts)
	if err != nil {
		return nil, err
	}
	fig := Figure{
		Title:  "Fig.9 IID local data",
		XLabel: "round",
		YLabel: "test accuracy",
	}
	for _, c := range clientCounts {
		parts, err := data.PartitionIID(s.train, c, rand.New(rand.NewSource(opts.Seed*157+int64(c))))
		if err != nil {
			return nil, err
		}
		for _, agg := range []fed.Aggregator{fed.FedAvg{}, fed.AdaptiveWeight{}} {
			global, _, _, err := runAggregation(s, parts, agg, nil)
			if err != nil {
				return nil, err
			}
			global.Name = fmt.Sprintf("%s C=%d", global.Name, c)
			fig.Series = append(fig.Series, global)
		}
	}
	return &Report{ID: "fig9", Title: fig.Title, Figures: []Figure{fig}}, nil
}

// RunTable12 regenerates Table XII: the heterogeneity statistics — the
// variance of local dataset sizes and the min/max test accuracy of models
// trained independently on each client's local data.
func RunTable12(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	s, err := newSetup("mnist", model.ArchLeNet5, opts)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	tbl := Table{
		Title:   "Representation of data heterogeneity (Table XII)",
		Columns: []string{"Clients", "Variance", "Min acc (%)", "Max acc (%)"},
	}
	for _, c := range clientCounts {
		parts, err := data.PartitionHeterogeneous(s.train, c, heteroSkew,
			rand.New(rand.NewSource(opts.Seed*131+int64(c))))
		if err != nil {
			return nil, err
		}
		variance := data.SizeVariance(parts)
		lo, hi := 1.0, 0.0
		for i, p := range parts {
			acc, err := trainLocalOnly(ctx, s, p, int64(i))
			if err != nil {
				return nil, err
			}
			if acc < lo {
				lo = acc
			}
			if acc > hi {
				hi = acc
			}
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", c),
			fmt.Sprintf("%.3g", variance),
			pct(lo),
			pct(hi),
		})
	}
	return &Report{ID: "table12", Title: tbl.Title, Tables: []Table{tbl}}, nil
}

// trainLocalOnly trains a fresh model on one client's data alone (no
// federation) and returns its test accuracy.
func trainLocalOnly(ctx context.Context, s *setup, ds *data.Dataset, seed int64) (float64, error) {
	mcfg := s.p.Model
	mcfg.Seed = s.opts.Seed*257 + seed
	net, err := model.Build(mcfg)
	if err != nil {
		return 0, err
	}
	opt, err := optim.NewSGD(s.clientConfig().Opt)
	if err != nil {
		return 0, err
	}
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	gl := loss.Goldfish{Hard: loss.CrossEntropy{}, ForgetScale: 1}
	rng := rand.New(rand.NewSource(seed + 911))
	epochs := s.rounds * s.p.Epochs
	for e := 0; e < epochs; e++ {
		if _, err := core.TrainEpoch(ctx, net, nil, ds, idx, nil, gl, opt, s.p.Batch, rng, nil); err != nil {
			return 0, err
		}
	}
	return metrics.Accuracy(net, s.test, 0), nil
}
