package unlearn

import (
	"fmt"

	"goldfish/internal/baselines"
	"goldfish/internal/core"
	"goldfish/internal/data"
	"goldfish/internal/fed"
)

// retrainStrategy implements B1 ("retrain") and B2 ("fisher"): a deletion
// drops the rows from the owning client and restarts federated training
// from a freshly initialized global model over the remaining data. With
// precond set, local updates are preconditioned by a running diagonal
// Fisher-information estimate (Liu et al.), which speeds the recovery.
type retrainStrategy struct {
	name     string
	precond  bool
	cfg      core.Config
	trainers []*baselines.PlainTrainer
	reinits  int64
	nextID   int
}

var (
	_ Strategy   = (*retrainStrategy)(nil)
	_ Membership = (*retrainStrategy)(nil)
)

// Name implements Strategy.
func (r *retrainStrategy) Name() string { return r.name }

// Setup implements Strategy.
func (r *retrainStrategy) Setup(env Env) ([]fed.LocalTrainer, error) {
	r.cfg = env.Client
	r.trainers = make([]*baselines.PlainTrainer, len(env.Parts))
	trainers := make([]fed.LocalTrainer, len(env.Parts))
	for i, p := range env.Parts {
		t, err := baselines.NewPlainTrainer(i, r.cfg, p, r.precond)
		if err != nil {
			return nil, err
		}
		r.trainers[i] = t
		trainers[i] = t
	}
	r.nextID = len(r.trainers)
	return trainers, nil
}

// AddTrainer implements Membership: the new participant joins from the next
// round onward.
func (r *retrainStrategy) AddTrainer(ds *data.Dataset) (fed.LocalTrainer, int, error) {
	id := r.nextID
	t, err := baselines.NewPlainTrainer(id, r.cfg, ds, r.precond)
	if err != nil {
		return nil, 0, err
	}
	r.trainers = append(r.trainers, t)
	r.nextID++
	return t, id, nil
}

// RemoveTrainer implements Membership. A departure with unlearnDeparted set
// follows the B1 reference semantics for client-level unlearning: every
// remaining client resets its optimizer (and Fisher) state and federated
// training restarts from a freshly initialized global model over the data
// that remains — a from-scratch retrain without the departed client.
func (r *retrainStrategy) RemoveTrainer(i int, unlearnDeparted bool) ([]float64, error) {
	if i < 0 || i >= len(r.trainers) {
		return nil, fmt.Errorf("unlearn: client %d out of range [0,%d)", i, len(r.trainers))
	}
	if len(r.trainers) == 1 {
		return nil, fmt.Errorf("unlearn: cannot remove the last client")
	}
	r.trainers = append(r.trainers[:i], r.trainers[i+1:]...)
	if !unlearnDeparted {
		return nil, nil
	}
	for _, t := range r.trainers {
		if err := t.Reset(); err != nil {
			return nil, err
		}
	}
	r.reinits++
	return baselines.ReinitVector(r.cfg, r.reinits*7919)
}

// Forget implements Strategy: drop the rows, reset every client's
// optimizer and Fisher state, and reinitialize the global model — the
// reference unlearning procedure retrains from scratch without the removed
// data, so no state accumulated around the contaminated model may survive.
func (r *retrainStrategy) Forget(clientID int, rows []int, _ []float64) ([]float64, error) {
	if clientID < 0 || clientID >= len(r.trainers) {
		return nil, fmt.Errorf("unlearn: client %d out of range [0,%d)", clientID, len(r.trainers))
	}
	if err := r.trainers[clientID].Forget(rows); err != nil {
		return nil, err
	}
	for i, t := range r.trainers {
		if i == clientID {
			continue // already reset by Forget
		}
		if err := t.Reset(); err != nil {
			return nil, err
		}
	}
	r.reinits++
	return baselines.ReinitVector(r.cfg, r.reinits*7919)
}

// teacherStrategy implements B3 ("incompetent-teacher", Chundawat et al.):
// a deletion keeps the contaminated global model as the competent teacher;
// the deleting client distills from it on remaining data and from a random
// incompetent teacher on the removed data, while everyone else keeps
// training normally.
type teacherStrategy struct {
	trainers []*baselines.IncompetentTrainer
}

var _ Strategy = (*teacherStrategy)(nil)

// Name implements Strategy.
func (t *teacherStrategy) Name() string { return "incompetent-teacher" }

// Setup implements Strategy. The distillation temperature is taken from the
// client configuration's loss (paper default T=3).
func (t *teacherStrategy) Setup(env Env) ([]fed.LocalTrainer, error) {
	t.trainers = make([]*baselines.IncompetentTrainer, len(env.Parts))
	trainers := make([]fed.LocalTrainer, len(env.Parts))
	for i, p := range env.Parts {
		tr, err := baselines.NewIncompetentTrainer(i, env.Client, p)
		if err != nil {
			return nil, err
		}
		t.trainers[i] = tr
		trainers[i] = tr
	}
	return trainers, nil
}

// Forget implements Strategy: the current (contaminated) global model stays
// in place and becomes the deleting client's competent teacher.
func (t *teacherStrategy) Forget(clientID int, rows []int, global []float64) ([]float64, error) {
	if clientID < 0 || clientID >= len(t.trainers) {
		return nil, fmt.Errorf("unlearn: client %d out of range [0,%d)", clientID, len(t.trainers))
	}
	if err := t.trainers[clientID].Forget(rows, global); err != nil {
		return nil, err
	}
	return nil, nil
}
