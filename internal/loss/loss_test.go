package loss

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"goldfish/internal/tensor"
)

// numGradCheck verifies grad against central finite differences of f at
// logits, probing every element.
func numGradCheck(t *testing.T, f func(*tensor.Tensor) float64, logits, grad *tensor.Tensor, tol float64) {
	t.Helper()
	const eps = 1e-6
	for i := range logits.Data() {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + eps
		lp := f(logits)
		logits.Data()[i] = orig - eps
		lm := f(logits)
		logits.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		got := grad.Data()[i]
		if math.Abs(num-got) > tol*(1+math.Abs(num)) {
			t.Errorf("grad[%d]: analytic %g vs numerical %g", i, got, num)
		}
	}
}

func randLogits(seed int64, n, c int) (*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(seed))
	logits := tensor.New(n, c).RandNormal(rng, 0, 2)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(c)
	}
	return logits, labels
}

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln 4.
	logits := tensor.New(2, 4)
	l, _ := CrossEntropy{}.Compute(logits, []int{0, 3})
	if math.Abs(l-math.Log(4)) > 1e-12 {
		t.Errorf("CE(uniform) = %g, want %g", l, math.Log(4))
	}
}

func TestCrossEntropyGradient(t *testing.T) {
	logits, labels := randLogits(1, 4, 5)
	_, grad := CrossEntropy{}.Compute(logits, labels)
	numGradCheck(t, func(z *tensor.Tensor) float64 {
		l, _ := CrossEntropy{}.Compute(z, labels)
		return l
	}, logits, grad, 1e-6)
}

func TestCrossEntropyGradientRowsSumToZero(t *testing.T) {
	logits, labels := randLogits(2, 3, 6)
	_, grad := CrossEntropy{}.Compute(logits, labels)
	for i := 0; i < 3; i++ {
		var s float64
		for _, v := range grad.Row(i) {
			s += v
		}
		if math.Abs(s) > 1e-12 {
			t.Errorf("row %d gradient sums to %g, want 0", i, s)
		}
	}
}

func TestFocalGradient(t *testing.T) {
	logits, labels := randLogits(3, 4, 5)
	_, grad := Focal{Gamma: 2}.Compute(logits, labels)
	numGradCheck(t, func(z *tensor.Tensor) float64 {
		l, _ := Focal{Gamma: 2}.Compute(z, labels)
		return l
	}, logits, grad, 1e-5)
}

func TestFocalGammaZeroEqualsCE(t *testing.T) {
	logits, labels := randLogits(4, 5, 7)
	lf, gf := Focal{Gamma: 0}.Compute(logits, labels)
	lc, gc := CrossEntropy{}.Compute(logits, labels)
	if math.Abs(lf-lc) > 1e-10 {
		t.Errorf("focal γ=0 loss %g != CE %g", lf, lc)
	}
	if !gf.ApproxEqual(gc, 1e-10) {
		t.Error("focal γ=0 gradient != CE gradient")
	}
}

func TestFocalDownweightsEasyExamples(t *testing.T) {
	// A confidently correct sample should contribute far less focal loss
	// than cross-entropy loss.
	logits := tensor.FromSlice([]float64{8, 0, 0}, 1, 3)
	labels := []int{0}
	lf, _ := Focal{Gamma: 2}.Compute(logits, labels)
	lc, _ := CrossEntropy{}.Compute(logits, labels)
	if lf >= lc {
		t.Errorf("focal %g should be below CE %g on easy example", lf, lc)
	}
}

func TestNLLGradient(t *testing.T) {
	logits, labels := randLogits(5, 4, 6)
	_, grad := NLL{}.Compute(logits, labels)
	numGradCheck(t, func(z *tensor.Tensor) float64 {
		l, _ := NLL{}.Compute(z, labels)
		return l
	}, logits, grad, 1e-6)
}

func TestNLLMatchesCE(t *testing.T) {
	logits, labels := randLogits(6, 3, 8)
	ln, _ := NLL{}.Compute(logits, labels)
	lc, _ := CrossEntropy{}.Compute(logits, labels)
	if math.Abs(ln-lc) > 1e-10 {
		t.Errorf("NLL %g != CE %g on hard labels", ln, lc)
	}
}

func TestDistillationGradient(t *testing.T) {
	student, _ := randLogits(7, 4, 5)
	teacher, _ := randLogits(8, 4, 5)
	for _, temp := range []float64{1, 3} {
		_, grad := Distillation(student, teacher, temp)
		numGradCheck(t, func(z *tensor.Tensor) float64 {
			l, _ := Distillation(z, teacher, temp)
			return l
		}, student, grad, 1e-5)
	}
}

func TestDistillationZeroGradAtTeacher(t *testing.T) {
	teacher, _ := randLogits(9, 3, 6)
	_, grad := Distillation(teacher.Clone(), teacher, 3)
	if grad.L2Norm() > 1e-10 {
		t.Errorf("gradient at student==teacher should vanish, norm=%g", grad.L2Norm())
	}
}

func TestDistillationTemperatureSoftens(t *testing.T) {
	// Higher temperature flattens the soft targets: after dividing out the
	// standard T² (well, T after softmax-Jacobian) gradient scaling, the
	// per-sample mismatch (P_S − P_T) must shrink with temperature.
	student := tensor.FromSlice([]float64{0, 0, 0}, 1, 3)
	teacher := tensor.FromSlice([]float64{5, 0, -5}, 1, 3)
	_, g1 := Distillation(student.Clone(), teacher, 1)
	_, g5 := Distillation(student.Clone(), teacher, 5)
	if g5.Scale(1.0/5).L2Norm() >= g1.L2Norm() {
		t.Errorf("unscaled T=5 mismatch %g should be below T=1 mismatch %g",
			g5.Scale(1.0/5).L2Norm(), g1.L2Norm())
	}
}

func TestConfusionGradient(t *testing.T) {
	logits, _ := randLogits(10, 4, 5)
	_, grad := Confusion(logits)
	numGradCheck(t, func(z *tensor.Tensor) float64 {
		l, _ := Confusion(z)
		return l
	}, logits, grad, 1e-5)
}

func TestConfusionMinimizedAtUniform(t *testing.T) {
	// Uniform logits → uniform softmax → zero variance → zero loss.
	logits := tensor.New(3, 6)
	l, grad := Confusion(logits)
	if l > 1e-12 {
		t.Errorf("confusion at uniform = %g, want 0", l)
	}
	if grad.L2Norm() > 1e-9 {
		t.Errorf("gradient at uniform should vanish, norm=%g", grad.L2Norm())
	}
}

func TestConfusionDescentFlattensPredictions(t *testing.T) {
	// Gradient descent on the confusion loss alone must push a confident
	// prediction towards uniform.
	logits := tensor.FromSlice([]float64{6, 0, 0, 0}, 1, 4)
	start, _ := Confusion(logits)
	for i := 0; i < 200; i++ {
		_, g := Confusion(logits)
		logits.AXPY(-5, g)
	}
	end, _ := Confusion(logits)
	if end >= start/10 {
		t.Errorf("confusion did not decrease enough: %g → %g", start, end)
	}
	p := tensor.SoftmaxRows(logits, 1)
	for _, v := range p.Data() {
		if math.Abs(v-0.25) > 0.1 {
			t.Errorf("prediction %g not near uniform 0.25", v)
		}
	}
}

func TestGoldfishValidate(t *testing.T) {
	if err := NewGoldfish().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := []Goldfish{
		{}, // no hard loss
		{Hard: CrossEntropy{}, MuC: -1},
		{Hard: CrossEntropy{}, MuD: 1, Temp: 0},
		{Hard: CrossEntropy{}, ForgetScale: -1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestGoldfishRetainStepGradient(t *testing.T) {
	student, labels := randLogits(11, 4, 5)
	teacher, _ := randLogits(12, 4, 5)
	g := NewGoldfish()
	_, grad := g.RetainStep(student, teacher, labels)
	numGradCheck(t, func(z *tensor.Tensor) float64 {
		l, _ := g.RetainStep(z, teacher, labels)
		return l
	}, student, grad, 1e-5)
}

func TestGoldfishForgetStepGradient(t *testing.T) {
	student, labels := randLogits(13, 4, 5)
	g := NewGoldfish()
	_, grad := g.ForgetStep(student, labels)
	numGradCheck(t, func(z *tensor.Tensor) float64 {
		l, _ := g.ForgetStep(z, labels)
		return l
	}, student, grad, 1e-5)
}

func TestGoldfishAblationToggles(t *testing.T) {
	student, labels := randLogits(14, 3, 5)
	teacher, _ := randLogits(15, 3, 5)

	full := NewGoldfish()
	noDistill := full
	noDistill.MuD = 0
	lFull, _ := full.RetainStep(student.Clone(), teacher, labels)
	lNoD, _ := noDistill.RetainStep(student.Clone(), nil, labels)
	if lFull == lNoD {
		t.Error("disabling distillation should change the retain loss")
	}

	noConf := full
	noConf.MuC = 0
	lF, _ := full.ForgetStep(student.Clone(), labels)
	lNC, _ := noConf.ForgetStep(student.Clone(), labels)
	if lF == lNC {
		t.Error("disabling confusion should change the forget loss")
	}
}

// Property: CE loss is non-negative and gradient rows sum to ~0 for all
// random logits.
func TestQuickCEProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, c := 1+rng.Intn(5), 2+rng.Intn(6)
		logits := tensor.New(n, c).RandNormal(rng, 0, 3)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(c)
		}
		l, grad := CrossEntropy{}.Compute(logits, labels)
		if l < 0 {
			return false
		}
		for i := 0; i < n; i++ {
			var s float64
			for _, v := range grad.Row(i) {
				s += v
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: confusion loss lies in [0, bound] where the variance of a
// probability vector is at most (c−1)/c² … sqrt of that bounds the loss.
func TestQuickConfusionBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, c := 1+rng.Intn(5), 2+rng.Intn(6)
		logits := tensor.New(n, c).RandNormal(rng, 0, 5)
		l, _ := Confusion(logits)
		cf := float64(c)
		bound := math.Sqrt((cf - 1) / (cf * cf))
		return l >= 0 && l <= bound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
