// Package baselines implements the client side of the three comparison
// systems of the paper's evaluation (§IV-A "Baselines"):
//
//   - B1 — retrain from scratch after dropping the removed data
//     (the reference unlearning procedure, as in Zhang et al. [23]);
//   - B2 — rapid retraining guided by diagonal Fisher information
//     (Liu et al. [21]), in first-order form: a running diagonal Fisher
//     estimate preconditions each gradient step;
//   - B3 — incompetent-teacher unlearning (Chundawat et al. [35]): distill
//     from the competent (original) teacher on remaining data and from a
//     randomly initialized incompetent teacher on removed data.
//
// The trainers (PlainTrainer, IncompetentTrainer) are fed.LocalTrainers.
// The unlearning-strategy registry (internal/unlearn) registers them as
// "retrain", "fisher" and "incompetent-teacher" and drives them through the
// same round engine as the Goldfish procedure; that is the only way a
// baseline runs.
package baselines

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"goldfish/internal/core"
	"goldfish/internal/data"
	"goldfish/internal/fed"
	"goldfish/internal/loss"
	"goldfish/internal/model"
	"goldfish/internal/nn"
	"goldfish/internal/optim"
	"goldfish/internal/tensor"
)

// PlainTrainer is per-client local SGD on hard loss, optionally with
// diagonal-FIM preconditioning (the B2 rapid-retraining rule). It implements
// fed.LocalTrainer.
type PlainTrainer struct {
	id      int
	cfg     core.Config
	ds      *data.Dataset
	net     *nn.Network
	opt     *optim.SGD
	rng     *rand.Rand
	precond bool
	fim     []float64 // EMA of squared gradients (diagonal FIM estimate)
}

var _ fed.LocalTrainer = (*PlainTrainer)(nil)

// NewPlainTrainer builds a B1/B2 client over its local dataset. precond
// enables the B2 Fisher preconditioning.
func NewPlainTrainer(id int, cfg core.Config, ds *data.Dataset, precond bool) (*PlainTrainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("baselines: client %d has no data", id)
	}
	mcfg := cfg.Model
	mcfg.Seed = cfg.Model.Seed + int64(id)*977 + 13
	net, err := model.Build(mcfg)
	if err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	opt, err := optim.NewSGD(cfg.Opt)
	if err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	return &PlainTrainer{
		id:      id,
		cfg:     cfg,
		ds:      ds,
		net:     net,
		opt:     opt,
		rng:     rand.New(rand.NewSource(cfg.Seed*7907 + int64(id))),
		precond: precond,
	}, nil
}

// NumSamples returns the client's current local dataset size.
func (p *PlainTrainer) NumSamples() int { return p.ds.Len() }

// Forget drops the given rows from the local dataset and resets the
// optimizer state (and the Fisher estimate), turning the next rounds into a
// from-scratch retrain over the remaining data. Rows index the current
// (post-previous-removals) dataset view.
func (p *PlainTrainer) Forget(rows []int) error {
	if len(rows) == 0 {
		return fmt.Errorf("baselines: client %d: empty deletion request", p.id)
	}
	for _, r := range rows {
		if r < 0 || r >= p.ds.Len() {
			return fmt.Errorf("baselines: client %d: row %d out of range [0,%d)", p.id, r, p.ds.Len())
		}
	}
	nd := p.ds.Remove(rows)
	if nd.Len() == 0 {
		return fmt.Errorf("baselines: client %d has no data after removal", p.id)
	}
	p.ds = nd
	return p.Reset()
}

// Reset discards the optimizer's momentum and the running Fisher estimate —
// state accumulated around the pre-deletion model that a from-scratch
// retrain must not inherit.
func (p *PlainTrainer) Reset() error {
	opt, err := optim.NewSGD(p.cfg.Opt)
	if err != nil {
		return fmt.Errorf("baselines: %w", err)
	}
	p.opt = opt
	p.fim = nil
	return nil
}

// TrainRound implements fed.LocalTrainer.
func (p *PlainTrainer) TrainRound(ctx context.Context, round int, global []float64) (fed.ModelUpdate, error) {
	if err := p.net.SetStateVector(global); err != nil {
		return fed.ModelUpdate{}, fmt.Errorf("baselines: client %d: %w", p.id, err)
	}
	idx := make([]int, p.ds.Len())
	for i := range idx {
		idx[i] = i
	}
	var transform core.GradTransform
	if p.precond {
		transform = p.precondition
	}
	gl := loss.Goldfish{Hard: loss.CrossEntropy{}, ForgetScale: 1}
	var last core.EpochResult
	for e := 0; e < p.cfg.LocalEpochs; e++ {
		res, err := core.TrainEpoch(ctx, p.net, nil, p.ds, idx, nil, gl, p.opt, p.cfg.BatchSize, p.rng, transform)
		if err != nil {
			return fed.ModelUpdate{}, err
		}
		last = res
	}
	return fed.ModelUpdate{
		ClientID:   p.id,
		Round:      round,
		Params:     p.net.StateVector(),
		NumSamples: p.ds.Len(),
		TrainLoss:  last.HardLoss,
	}, nil
}

// precondition is the B2 gradient transform: each gradient is rescaled by
// the inverse root of the running diagonal Fisher estimate before the step
// — Liu et al.'s curvature-guided fast recovery in first-order form.
func (p *PlainTrainer) precondition(params []*nn.Param) {
	const (
		decay = 0.9
		eps   = 1e-4
	)
	if p.fim == nil {
		p.fim = make([]float64, p.net.NumParams())
	}
	off := 0
	for _, pr := range params {
		g := pr.G.Data()
		for j := range g {
			f := decay*p.fim[off] + (1-decay)*g[j]*g[j]
			p.fim[off] = f
			g[j] /= math.Sqrt(f) + eps
			off++
		}
	}
}

// ReinitVector builds the freshly initialized global model a from-scratch
// retrain starts at.
func ReinitVector(cfg core.Config, seedBump int64) ([]float64, error) {
	mcfg := cfg.Model
	mcfg.Seed = cfg.Seed + 4242 + seedBump // fresh initialization: this is a retrain
	initNet, err := model.Build(mcfg)
	if err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	return initNet.StateVector(), nil
}

// IncompetentTrainer is the B3 client (Chundawat et al.): it distills from
// the competent (pre-deletion) teacher on its remaining data and from an
// incompetent random teacher on its removed data. Before any deletion it
// trains normally on hard loss. It implements fed.LocalTrainer.
type IncompetentTrainer struct {
	id          int
	cfg         core.Config
	dr          *data.Dataset
	df          *data.Dataset
	net         *nn.Network
	competent   *nn.Network
	incompetent *nn.Network
	opt         *optim.SGD
	rng         *rand.Rand
}

var _ fed.LocalTrainer = (*IncompetentTrainer)(nil)

// NewIncompetentTrainer builds a B3 client over its local dataset. The
// competent teacher distills at the configuration's loss temperature
// (cfg.Loss.Temp); the teachers are created when Forget is called.
func NewIncompetentTrainer(id int, cfg core.Config, ds *data.Dataset) (*IncompetentTrainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	if cfg.Loss.Temp <= 0 {
		return nil, fmt.Errorf("baselines: distillation temperature must be positive, got %g", cfg.Loss.Temp)
	}
	if ds == nil || ds.Len() == 0 {
		return nil, fmt.Errorf("baselines: client %d has no data", id)
	}
	mcfg := cfg.Model
	mcfg.Seed = cfg.Model.Seed + int64(id)*881 + 3
	student, err := model.Build(mcfg)
	if err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	opt, err := optim.NewSGD(cfg.Opt)
	if err != nil {
		return nil, fmt.Errorf("baselines: %w", err)
	}
	return &IncompetentTrainer{
		id:  id,
		cfg: cfg,
		dr:  ds,
		net: student,
		opt: opt,
		rng: rand.New(rand.NewSource(cfg.Seed*3181 + int64(id))),
	}, nil
}

// NumSamples returns the client's remaining local dataset size.
func (t *IncompetentTrainer) NumSamples() int { return t.dr.Len() }

// Forget turns this client into the unlearning party: rows are split out as
// the forget set Df, the contaminated global model becomes the competent
// teacher, and a freshly initialized network of the same architecture the
// incompetent one.
func (t *IncompetentTrainer) Forget(rows []int, contaminated []float64) error {
	if len(rows) == 0 {
		return fmt.Errorf("baselines: client %d: empty deletion request", t.id)
	}
	if len(contaminated) == 0 {
		return fmt.Errorf("baselines: B3 needs the contaminated global model")
	}
	for _, r := range rows {
		if r < 0 || r >= t.dr.Len() {
			return fmt.Errorf("baselines: client %d: row %d out of range [0,%d)", t.id, r, t.dr.Len())
		}
	}
	df := t.dr.Subset(rows)
	dr := t.dr.Remove(rows)
	if dr.Len() == 0 {
		return fmt.Errorf("baselines: client %d has no data after removal", t.id)
	}
	mcfg := t.cfg.Model
	mcfg.Seed = t.cfg.Model.Seed + int64(t.id)*881 + 3
	competent, err := model.Build(mcfg)
	if err != nil {
		return fmt.Errorf("baselines: %w", err)
	}
	if err := competent.SetStateVector(contaminated); err != nil {
		return fmt.Errorf("baselines: loading competent teacher: %w", err)
	}
	mcfg.Seed = t.cfg.Seed + int64(t.id)*6151 + 99 // random incompetent teacher
	incompetent, err := model.Build(mcfg)
	if err != nil {
		return fmt.Errorf("baselines: %w", err)
	}
	if t.df != nil {
		merged, err := t.df.Concat(df)
		if err != nil {
			return fmt.Errorf("baselines: client %d: merging deletion requests: %w", t.id, err)
		}
		df = merged
	}
	t.dr, t.df = dr, df
	t.competent, t.incompetent = competent, incompetent
	return nil
}

// TrainRound implements fed.LocalTrainer.
func (t *IncompetentTrainer) TrainRound(ctx context.Context, round int, global []float64) (fed.ModelUpdate, error) {
	if err := t.net.SetStateVector(global); err != nil {
		return fed.ModelUpdate{}, fmt.Errorf("baselines: client %d: %w", t.id, err)
	}
	params := t.net.Params()
	unlearning := t.df != nil && t.df.Len() > 0 && t.competent != nil
	var lastLoss float64
	for e := 0; e < t.cfg.LocalEpochs; e++ {
		if err := ctx.Err(); err != nil {
			return fed.ModelUpdate{}, err
		}
		lastLoss = 0
		batches := data.BatchIndices(t.dr.Len(), t.cfg.BatchSize, t.rng)
		for _, b := range batches {
			x := sliceX(t.dr, b)
			logits := t.net.Forward(x, true)
			var l float64
			var grad *tensor.Tensor
			if unlearning {
				// Chundawat et al.: the unlearning party distills the
				// competent teacher on its remaining data.
				tLogits := t.competent.Forward(x, false)
				l, grad = loss.Distillation(logits, tLogits, t.cfg.Loss.Temp)
			} else {
				// Clients without removals train normally; distilling them
				// from the contaminated teacher would keep re-teaching the
				// very behaviour being unlearned.
				l, grad = (loss.CrossEntropy{}).Compute(logits, t.dr.LabelsFor(b))
			}
			t.net.ZeroGrads()
			t.net.Backward(grad)
			t.opt.Step(params)
			lastLoss += l
		}
		if len(batches) > 0 {
			lastLoss /= float64(len(batches))
		}
		if unlearning {
			// |Df| ≪ |Dr|, and in a federation only this client pushes
			// against the backdoor while every client's retain distillation
			// pulls towards the contaminated teacher. Repeat the forget
			// passes and distill sharply (T=1) so bad teaching wins.
			const forgetPasses = 3
			for pass := 0; pass < forgetPasses; pass++ {
				for _, b := range data.BatchIndices(t.df.Len(), t.cfg.BatchSize, t.rng) {
					x := sliceX(t.df, b)
					logits := t.net.Forward(x, true)
					badLogits := t.incompetent.Forward(x, false)
					_, grad := loss.Distillation(logits, badLogits, 1)
					t.net.ZeroGrads()
					t.net.Backward(grad)
					t.opt.Step(params)
				}
			}
		}
	}
	return fed.ModelUpdate{
		ClientID:   t.id,
		Round:      round,
		Params:     t.net.StateVector(),
		NumSamples: t.dr.Len(),
		TrainLoss:  lastLoss,
	}, nil
}

// sliceX extracts the given rows of a dataset as a batch tensor.
func sliceX(ds *data.Dataset, rows []int) *tensor.Tensor {
	return tensor.SliceRows(ds.X, rows)
}
