package core

import (
	"context"
	"math/rand"

	"goldfish/internal/data"
	"goldfish/internal/loss"
	"goldfish/internal/nn"
	"goldfish/internal/optim"
	"goldfish/internal/tensor"
)

// EpochResult reports one local epoch of Goldfish training.
type EpochResult struct {
	// HardLoss is the mean hard-loss component over remaining-data batches,
	// the quantity the early-termination rule (Eq. 7) compares.
	HardLoss float64
	// TotalLoss is the mean full objective over remaining-data batches.
	TotalLoss float64
}

// GradTransform rewrites the freshly computed gradients of params in place
// before each optimizer step (e.g. the B2 Fisher preconditioning).
type GradTransform func(params []*nn.Param)

// TrainEpoch runs one epoch of the Goldfish local procedure on student:
// retain steps over the remaining rows (drIdx into ds) with optional
// distillation from teacher, followed by forget steps over df (may be nil
// or empty). transform, when non-nil, runs before every optimizer step. It
// returns the epoch's mean losses.
//
// This is the inner loop of both the Goldfish procedure and the
// LocalTraining procedure of Algorithm 1 (the latter is the special case
// teacher == nil, df == nil). The retrain baselines reuse it with their own
// settings; Goldfish passes a nil transform.
func TrainEpoch(ctx context.Context, student, teacher *nn.Network, ds *data.Dataset, drIdx []int,
	df *data.Dataset, gl loss.Goldfish, opt *optim.SGD, batchSize int, rng *rand.Rand,
	transform GradTransform) (EpochResult, error) {

	var res EpochResult
	params := student.Params()

	batches := data.BatchIndices(len(drIdx), batchSize, rng)
	for _, b := range batches {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		rows := make([]int, len(b))
		for i, j := range b {
			rows[i] = drIdx[j]
		}
		x := tensor.SliceRows(ds.X, rows)
		labels := ds.LabelsFor(rows)

		logits := student.Forward(x, true)
		hardLoss, grad := gl.Hard.Compute(logits, labels)
		total := hardLoss
		if teacher != nil && gl.MuD > 0 {
			tLogits := teacher.Forward(x, false)
			ld, gd := loss.Distillation(logits, tLogits, gl.Temp)
			total += gl.MuD * ld
			grad.AXPY(gl.MuD, gd)
		}
		student.ZeroGrads()
		student.Backward(grad)
		if transform != nil {
			transform(params)
		}
		opt.Step(params)

		res.HardLoss += hardLoss
		res.TotalLoss += total
	}
	if len(batches) > 0 {
		res.HardLoss /= float64(len(batches))
		res.TotalLoss /= float64(len(batches))
	}

	if df != nil && df.Len() > 0 {
		fBatches := data.BatchIndices(df.Len(), batchSize, rng)
		for _, b := range fBatches {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			x := tensor.SliceRows(df.X, b)
			labels := df.LabelsFor(b)
			logits := student.Forward(x, true)
			_, grad := gl.ForgetStep(logits, labels)
			student.ZeroGrads()
			student.Backward(grad)
			if transform != nil {
				transform(params)
			}
			opt.Step(params)
		}
	}
	return res, nil
}

// EvalHardLoss evaluates the mean hard loss of net over the given dataset
// rows in evaluation mode — L(ω) as used by the early-termination reference
// of Eq. 7.
func EvalHardLoss(net *nn.Network, ds *data.Dataset, idx []int, h loss.Hard, batchSize int) float64 {
	if len(idx) == 0 {
		return 0
	}
	batches := data.BatchIndices(len(idx), batchSize, nil)
	var total float64
	for _, b := range batches {
		rows := make([]int, len(b))
		for i, j := range b {
			rows[i] = idx[j]
		}
		x := tensor.SliceRows(ds.X, rows)
		logits := net.Forward(x, false)
		l, _ := h.Compute(logits, ds.LabelsFor(rows))
		total += l * float64(len(b))
	}
	return total / float64(len(idx))
}

// TrainLocal runs up to maxEpochs epochs of TrainEpoch with optional early
// termination (stopper may be nil). It returns the last epoch's result and
// the number of epochs actually run.
func TrainLocal(ctx context.Context, student, teacher *nn.Network, ds *data.Dataset, drIdx []int,
	df *data.Dataset, gl loss.Goldfish, opt *optim.SGD, batchSize, maxEpochs int,
	stopper *optim.EarlyStopper, rng *rand.Rand) (EpochResult, int, error) {

	var last EpochResult
	epochs := 0
	for e := 0; e < maxEpochs; e++ {
		res, err := TrainEpoch(ctx, student, teacher, ds, drIdx, df, gl, opt, batchSize, rng, nil)
		if err != nil {
			return last, epochs, err
		}
		last = res
		epochs++
		if stopper != nil {
			stopper.Observe(res.HardLoss)
			if stopper.ShouldStop() {
				break
			}
		}
	}
	return last, epochs, nil
}
