// Package fed implements the federated-learning runtime the Goldfish
// framework runs on: client/server round orchestration, model aggregation
// (FedAvg and the paper's adaptive-weight scheme, Eqs. 12–13), one round
// engine, an in-process transport for simulations and tests, and a TCP
// transport (length-framed gob) for running a real federation across
// processes.
package fed

import (
	"errors"
	"fmt"
	"math"
)

// ModelUpdate is one client's upload at the end of a local training round.
type ModelUpdate struct {
	// ClientID identifies the uploading client.
	ClientID int
	// Round is the global round this update belongs to.
	Round int
	// Params is the client's flat local parameter vector.
	Params []float64
	// NumSamples is the client's local dataset size (FedAvg weighting).
	NumSamples int
	// TrainLoss is the client's final local training loss (diagnostics).
	TrainLoss float64
	// MSE is the model-quality score measured on the server's test set
	// (paper Eq. 12); the round engine fills it via its Scorer before
	// aggregation.
	MSE float64
}

// ErrNoUpdates is returned when aggregation receives no usable updates.
var ErrNoUpdates = errors.New("fed: no updates to aggregate")

// Aggregator combines client updates into new global parameters.
type Aggregator interface {
	// Name identifies the aggregator in experiment tables.
	Name() string
	// Aggregate returns the new global parameter vector.
	Aggregate(updates []ModelUpdate) ([]float64, error)
}

func checkUpdates(updates []ModelUpdate) (int, error) {
	if len(updates) == 0 {
		return 0, ErrNoUpdates
	}
	size := len(updates[0].Params)
	for _, u := range updates[1:] {
		if len(u.Params) != size {
			return 0, fmt.Errorf("fed: parameter size mismatch: client %d has %d, client %d has %d",
				updates[0].ClientID, size, u.ClientID, len(u.Params))
		}
	}
	return size, nil
}

// FedAvg is the standard sample-count-weighted average of McMahan et al.
type FedAvg struct{}

var _ Aggregator = FedAvg{}

// Name implements Aggregator.
func (FedAvg) Name() string { return "fedavg" }

// Aggregate implements Aggregator.
func (FedAvg) Aggregate(updates []ModelUpdate) ([]float64, error) {
	size, err := checkUpdates(updates)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, u := range updates {
		if u.NumSamples < 0 {
			return nil, fmt.Errorf("fed: client %d reports negative sample count %d", u.ClientID, u.NumSamples)
		}
		total += u.NumSamples
	}
	out := make([]float64, size) //goldfish:allocok — the new global vector escapes to the engine
	if total == 0 {
		// Degenerate: unweighted mean.
		inv := 1 / float64(len(updates))
		for _, u := range updates {
			for j, v := range u.Params {
				out[j] += v * inv
			}
		}
		return out, nil
	}
	for _, u := range updates {
		w := float64(u.NumSamples) / float64(total)
		for j, v := range u.Params {
			out[j] += w * v
		}
	}
	return out, nil
}

// AdaptiveWeight implements the paper's extension-module aggregation
// (Eqs. 12–13): clients with lower MSE on the server test set receive
// exponentially larger weights,
//
//	W_c = exp(−(mse_c − avg)/avg),  ω = (1/θ)·Σ W_c·ω_c,  θ = Σ W_c.
type AdaptiveWeight struct{}

var _ Aggregator = AdaptiveWeight{}

// Name implements Aggregator.
func (AdaptiveWeight) Name() string { return "adaptive" }

// Aggregate implements Aggregator.
func (AdaptiveWeight) Aggregate(updates []ModelUpdate) ([]float64, error) {
	size, err := checkUpdates(updates)
	if err != nil {
		return nil, err
	}
	var avg float64
	for _, u := range updates {
		if u.MSE < 0 {
			return nil, fmt.Errorf("fed: client %d reports negative MSE %g", u.ClientID, u.MSE)
		}
		avg += u.MSE
	}
	avg /= float64(len(updates))

	weights := make([]float64, len(updates)) //goldfish:allocok — once per round, size = client count
	var theta float64
	for i, u := range updates {
		if avg == 0 {
			weights[i] = 1 // all clients perfect: uniform weights
		} else {
			weights[i] = math.Exp(-(u.MSE - avg) / avg)
		}
		theta += weights[i]
	}
	out := make([]float64, size) //goldfish:allocok — the new global vector escapes to the engine
	for i, u := range updates {
		w := weights[i] / theta
		for j, v := range u.Params {
			out[j] += w * v
		}
	}
	return out, nil
}

// Weights exposes the normalized Eq. 12 weights for diagnostics and tests.
func (AdaptiveWeight) Weights(mses []float64) []float64 {
	if len(mses) == 0 {
		return nil
	}
	var avg float64
	for _, m := range mses {
		avg += m
	}
	avg /= float64(len(mses))
	out := make([]float64, len(mses))
	var theta float64
	for i, m := range mses {
		if avg == 0 {
			out[i] = 1
		} else {
			out[i] = math.Exp(-(m - avg) / avg)
		}
		theta += out[i]
	}
	for i := range out {
		out[i] /= theta
	}
	return out
}
