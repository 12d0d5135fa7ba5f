// Package loss implements the Goldfish loss module (paper §III-B): the hard
// losses (cross-entropy, focal, negative log-likelihood), the confusion loss
// over removed data, the temperature-scaled distillation loss, and the
// composite Goldfish objective L = Lh + µc·Lc + µd·Ld with Lh = Lr − Lf.
//
// Every loss returns both the scalar value and the analytic gradient with
// respect to the logits, so the network's Backward can be driven directly.
// All values are batch means, which keeps learning rates comparable across
// batch sizes and across the unequal |Dr| ≫ |Df| the paper assumes.
package loss

import (
	"fmt"
	"math"

	"goldfish/internal/tensor"
)

// Hard is a supervised loss on (logits, labels) used as the "hard loss"
// component. Implementations must return the batch-mean loss and the
// gradient w.r.t. the logits.
type Hard interface {
	// Name identifies the loss in experiment tables ("ce", "focal", "nll").
	Name() string
	// Compute returns the batch-mean loss and ∂L/∂logits.
	Compute(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor)
}

func checkLogits(logits *tensor.Tensor, labels []int, what string) (n, c int) {
	if logits.Dims() != 2 {
		panic(fmt.Sprintf("loss: %s expects 2-D logits, got %v", what, logits.Shape()))
	}
	n, c = logits.Dim(0), logits.Dim(1)
	if labels != nil && len(labels) != n {
		panic(fmt.Sprintf("loss: %s got %d labels for %d rows", what, len(labels), n))
	}
	if labels != nil {
		for i, y := range labels {
			if y < 0 || y >= c {
				panic(fmt.Sprintf("loss: %s label[%d]=%d out of range [0,%d)", what, i, y, c))
			}
		}
	}
	return n, c
}

// CrossEntropy is the standard softmax cross-entropy loss.
type CrossEntropy struct{}

var _ Hard = CrossEntropy{}

// Name implements Hard.
func (CrossEntropy) Name() string { return "ce" }

// Compute implements Hard. grad = (softmax(z) − onehot(y)) / N.
func (CrossEntropy) Compute(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, c := checkLogits(logits, labels, "CrossEntropy")
	logp := tensor.LogSoftmaxRows(logits)
	grad := tensor.New(n, c)
	var total float64
	gd, ld := grad.Data(), logp.Data()
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		row := ld[i*c : (i+1)*c]
		total -= row[labels[i]]
		grow := gd[i*c : (i+1)*c]
		for j := 0; j < c; j++ {
			grow[j] = math.Exp(row[j]) * inv
		}
		grow[labels[i]] -= inv
	}
	return total * inv, grad
}

// Focal is the focal loss of Lin et al. (ICCV 2017):
// L = −(1−p_t)^γ · log(p_t), reducing the weight of well-classified samples.
type Focal struct {
	// Gamma is the focusing parameter; 0 reduces to cross-entropy. The
	// common default is 2.
	Gamma float64
}

var _ Hard = Focal{}

// Name implements Hard.
func (Focal) Name() string { return "focal" }

// Compute implements Hard.
func (f Focal) Compute(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, c := checkLogits(logits, labels, "Focal")
	gamma := f.Gamma
	p := tensor.SoftmaxRows(logits, 1)
	grad := tensor.New(n, c)
	var total float64
	pd, gd := p.Data(), grad.Data()
	inv := 1 / float64(n)
	const eps = 1e-12
	for i := 0; i < n; i++ {
		prow := pd[i*c : (i+1)*c]
		y := labels[i]
		pt := math.Max(prow[y], eps)
		onemp := 1 - pt
		logpt := math.Log(pt)
		total -= math.Pow(onemp, gamma) * logpt
		// dL/dpt = γ(1−pt)^{γ−1}·log(pt) − (1−pt)^γ / pt
		var dldpt float64
		if gamma == 0 {
			dldpt = -1 / pt
		} else {
			dldpt = gamma*math.Pow(onemp, gamma-1)*logpt - math.Pow(onemp, gamma)/pt
		}
		// dpt/dz_j = pt·(δ_{jy} − p_j)
		grow := gd[i*c : (i+1)*c]
		for j := 0; j < c; j++ {
			delta := 0.0
			if j == y {
				delta = 1
			}
			grow[j] = dldpt * pt * (delta - prow[j]) * inv
		}
	}
	return total * inv, grad
}

// NLL is the negative log-likelihood loss computed through an explicit
// log-softmax path. For hard labels it is numerically equal to CrossEntropy;
// the paper's Table XI ("Total loss γ") exercises it as a distinct hard-loss
// plug-in to demonstrate framework compatibility.
type NLL struct{}

var _ Hard = NLL{}

// Name implements Hard.
func (NLL) Name() string { return "nll" }

// Compute implements Hard.
func (NLL) Compute(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, c := checkLogits(logits, labels, "NLL")
	logp := tensor.LogSoftmaxRows(logits)
	grad := tensor.New(n, c)
	var total float64
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		row := logp.Data()[i*c : (i+1)*c]
		y := labels[i]
		total -= row[y]
		// d(−logp_y)/dz_j = p_j − δ_{jy}
		grow := grad.Data()[i*c : (i+1)*c]
		for j := 0; j < c; j++ {
			grow[j] = math.Exp(row[j]) * inv
		}
		grow[y] -= inv
	}
	return total * inv, grad
}

// Distillation computes the knowledge-distillation loss (paper Eq. 5):
// Ld = −mean_i Σ_c P_T(c|x_i) log P_S(c|x_i) with both confidence vectors
// computed at temperature T (Eqs. 3–4), scaled by T² as is standard for
// distillation (Hinton et al.) so the soft-target gradient magnitude stays
// comparable across temperatures. The returned gradient is w.r.t. the
// student logits: T²·(P_S − P_T)/(N·T) = T·(P_S − P_T)/N.
func Distillation(studentLogits, teacherLogits *tensor.Tensor, temp float64) (float64, *tensor.Tensor) {
	if !studentLogits.SameShape(teacherLogits) {
		panic(fmt.Sprintf("loss: Distillation shape mismatch %v vs %v",
			studentLogits.Shape(), teacherLogits.Shape()))
	}
	if temp <= 0 {
		panic(fmt.Sprintf("loss: Distillation temperature must be positive, got %g", temp))
	}
	n, c := checkLogits(studentLogits, nil, "Distillation")
	ps := tensor.SoftmaxRows(studentLogits, temp)
	pt := tensor.SoftmaxRows(teacherLogits, temp)
	grad := tensor.New(n, c)
	var total float64
	const eps = 1e-12
	inv := 1 / float64(n)
	t2 := temp * temp
	for i := 0; i < n; i++ {
		sRow := ps.Data()[i*c : (i+1)*c]
		tRow := pt.Data()[i*c : (i+1)*c]
		gRow := grad.Data()[i*c : (i+1)*c]
		for j := 0; j < c; j++ {
			total -= tRow[j] * math.Log(math.Max(sRow[j], eps)) * t2
			gRow[j] = (sRow[j] - tRow[j]) * inv * temp
		}
	}
	return total * inv, grad
}

// Confusion computes the confusion loss (paper Eq. 2):
// Lc = mean_j sqrt(Var(Ms(x_j))) over the removed batch, where Var is the
// population variance of the softmax prediction vector. Minimizing it pushes
// predictions on removed data towards the uniform distribution, erasing any
// confident (e.g. backdoored) pattern. The returned gradient is w.r.t. the
// logits.
func Confusion(logits *tensor.Tensor) (float64, *tensor.Tensor) {
	n, c := checkLogits(logits, nil, "Confusion")
	p := tensor.SoftmaxRows(logits, 1)
	grad := tensor.New(n, c)
	var total float64
	const eps = 1e-12
	mean := 1 / float64(c) // Σp = 1, so the mean prediction is always 1/c
	inv := 1 / float64(n)
	for i := 0; i < n; i++ {
		prow := p.Data()[i*c : (i+1)*c]
		var variance float64
		for _, v := range prow {
			d := v - mean
			variance += d * d
		}
		variance /= float64(c)
		sd := math.Sqrt(variance)
		total += sd
		if sd < eps {
			continue // already uniform; zero gradient
		}
		// g_c = dL/dp_c = (p_c − mean)/(c·sd); chain through softmax:
		// dL/dz_k = p_k (g_k − Σ_c g_c p_c).
		grow := grad.Data()[i*c : (i+1)*c]
		var dot float64
		for j := 0; j < c; j++ {
			g := (prow[j] - mean) / (float64(c) * sd)
			grow[j] = g // reuse as scratch
			dot += g * prow[j]
		}
		for j := 0; j < c; j++ {
			grow[j] = prow[j] * (grow[j] - dot) * inv
		}
	}
	return total * inv, grad
}
