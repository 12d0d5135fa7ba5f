package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"goldfish"
	"goldfish/internal/core"
	"goldfish/internal/loss"
	"goldfish/internal/nn"
	"goldfish/internal/optim"
	"goldfish/internal/tensor"
)

// probeInput is the client step the probe times: the workload's own client
// configuration (model, loss, optimizer, batch size) and local data.
type probeInput struct {
	cfg    goldfish.Config
	data   *goldfish.Dataset // retained rows: the retain step and the early-termination evaluation
	forget *goldfish.Dataset // deleted rows: the forget step
}

// probeBudget bounds the time spent on each timed operation.
const probeBudget = 250 * time.Millisecond

// timeIt times fn reps times and returns the median in microseconds.
func timeIt(reps int, fn func()) float64 {
	us := make([]float64, reps)
	for i := range us {
		t := time.Now()
		fn()
		us[i] = float64(time.Since(t).Nanoseconds()) / 1e3
	}
	return median(us)
}

// repsFor picks a repetition count that keeps an operation of the given
// duration within probeBudget, between 5 and 200.
func repsFor(once time.Duration) int {
	n := int(probeBudget / (once + 1))
	return max(5, min(200, n))
}

// probe times the client step below the round boundary: the retain and
// forget steps and their parts (teacher forward, losses, SGD step), the
// early-termination evaluation, each nn layer kind's forward and backward
// pass, and the GEMM kernels at the model's own shapes.
func probe(b *bench, in probeInput) error {
	student, err := goldfish.BuildModel(in.cfg.Model)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	teacher := student.Clone()
	x, labels := batchOf(in.data, in.cfg.BatchSize)
	fx, flabels := batchOf(in.forget, in.cfg.BatchSize)
	gl := in.cfg.Loss
	opt, err := optim.NewSGD(in.cfg.Opt)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	params := student.Params()

	retain := func() {
		logits := student.Forward(x, true)
		_, grad := gl.Hard.Compute(logits, labels)
		_, gd := loss.Distillation(logits, teacher.Forward(x, false), gl.Temp)
		grad.AXPY(gl.MuD, gd)
		student.ZeroGrads()
		student.Backward(grad)
		opt.Step(params)
	}
	t := time.Now()
	retain()
	reps := repsFor(time.Since(t))
	b.set("core.retain_step_us", timeIt(reps, retain))
	b.set("core.teacher_fwd_us", timeIt(reps, func() { teacher.Forward(x, false) }))
	b.set("core.forget_step_us", timeIt(reps, func() {
		_, grad := gl.ForgetStep(student.Forward(fx, true), flabels)
		student.ZeroGrads()
		student.Backward(grad)
		opt.Step(params)
	}))

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < reps; i++ {
		retain()
	}
	runtime.ReadMemStats(&ms1)
	b.set("nn.bytes_per_step", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(reps))

	logits := student.Forward(x, true).Clone()
	tlogits := teacher.Forward(x, false).Clone()
	b.set("loss.hard_us", timeIt(200, func() { gl.Hard.Compute(logits, labels) }))
	b.set("loss.distill_us", timeIt(200, func() { loss.Distillation(logits, tlogits, gl.Temp) }))
	b.set("loss.forget_us", timeIt(200, func() { gl.ForgetStep(logits, labels) }))
	b.set("optim.sgd_step_us", timeIt(reps, func() { opt.Step(params) }))

	rows := make([]int, in.data.Len())
	for i := range rows {
		rows[i] = i
	}
	evalUS := timeIt(max(3, reps/10), func() { core.EvalHardLoss(teacher, in.data, rows, gl.Hard, in.cfg.BatchSize) })
	b.set("core.early_eval_us_per_row", evalUS/float64(len(rows)))

	probeLayers(b, student, x, labels, gl.Hard, reps)
	return nil
}

// batchOf returns the first batch of d and its labels.
func batchOf(d *goldfish.Dataset, batch int) (*tensor.Tensor, []int) {
	rows := make([]int, min(batch, d.Len()))
	for i := range rows {
		rows[i] = i
	}
	return tensor.SliceRows(d.X, rows), d.LabelsFor(rows)
}

// layerKind groups nn layers for the per-layer metrics.
func layerKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D:
		return "conv2d"
	case *nn.BatchNorm2D:
		return "batchnorm"
	case *nn.Dense:
		return "dense"
	case *nn.MaxPool2D, *nn.GlobalAvgPool2D:
		return "pool"
	case *nn.Residual:
		return "residual"
	default:
		return "other"
	}
}

// timedLayer is one layer timed at its input shape within the model.
type timedLayer struct {
	kind     string
	l        nn.Layer
	in, out  []int
	fwd, bwd float64 // median µs
}

// probeLayers times the public Forward and Backward of every entry of
// net.Layers() at the model's batch. A residual block's convolutions and
// batch norms are private to it, so they are rebuilt stand-alone at the
// block's shapes (conv3×3-bn-relu-conv3×3-bn, plus a 1×1 conv-bn shortcut
// when the shape changes, as nn.NewResidual builds them) and timed there.
// The conv and GEMM metrics cover every convolution of the model.
func probeLayers(b *bench, net *goldfish.Network, x *tensor.Tensor, labels []int, hard loss.Hard, reps int) {
	layers := net.Layers()
	fwd := make([][]float64, len(layers))
	bwd := make([][]float64, len(layers))
	shapes := make([][2][]int, len(layers))
	for rep := 0; rep < reps; rep++ {
		h := x
		for i, l := range layers {
			shapes[i][0] = h.Shape()
			t := time.Now()
			h = l.Forward(h, true)
			fwd[i] = append(fwd[i], float64(time.Since(t).Nanoseconds())/1e3)
			shapes[i][1] = h.Shape()
		}
		_, g := hard.Compute(h, labels)
		net.ZeroGrads()
		for i := len(layers) - 1; i >= 0; i-- {
			t := time.Now()
			g = layers[i].Backward(g)
			bwd[i] = append(bwd[i], float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	var timed []timedLayer
	rng := rand.New(rand.NewSource(1))
	for i, l := range layers {
		tl := timedLayer{kind: layerKind(l), l: l, in: shapes[i][0], out: shapes[i][1], fwd: median(fwd[i]), bwd: median(bwd[i])}
		if tl.kind != "residual" {
			timed = append(timed, tl)
			continue
		}
		for _, sl := range residualParts(tl.in, tl.out, rng) {
			timed = append(timed, timeStandalone(sl, reps, rng))
		}
	}

	sums := map[string]float64{}
	var convUS, gemmUS float64
	var gemms []gemmShape
	for _, tl := range timed {
		sums[tl.kind+".fwd_us"] += tl.fwd
		sums[tl.kind+".bwd_us"] += tl.bwd
		switch l := tl.l.(type) {
		case *nn.Conv2D:
			g := convGEMMs(l, tl.in)
			gemms = append(gemms, g...)
			convUS += tl.fwd + tl.bwd
			gemmUS += timeGEMMs(g, reps, rng)
		case *nn.Dense:
			gemms = append(gemms, denseGEMMs(l, tl.in[0])...)
		}
	}
	for _, k := range []string{"conv2d", "batchnorm", "dense", "pool"} {
		b.set("nn."+k+".fwd_us", sums[k+".fwd_us"])
		b.set("nn."+k+".bwd_us", sums[k+".bwd_us"])
	}
	b.set("nn.conv2d.gemm_share", ratio(gemmUS, convUS))

	prev := tensor.ForceSerial(true)
	serial := gflops(gemms, reps, rng)
	tensor.ForceSerial(false)
	parallel := gflops(gemms, reps, rng)
	tensor.ForceSerial(prev)
	b.set("tensor.gemm_gflops_serial", serial)
	b.set("tensor.gemm_gflops_parallel", parallel)
	b.set("tensor.gemm_speedup", ratio(parallel, serial))
}

// residualParts rebuilds a residual block's convolutions and batch norms
// stand-alone from the block's input and output shapes.
func residualParts(in, out []int, rng *rand.Rand) []timedLayer {
	inC, outC := in[1], out[1]
	stride := max(1, in[2]/out[2])
	parts := []timedLayer{
		{kind: "conv2d", l: nn.NewConv2D(inC, outC, 3, stride, 1, rng), in: in, out: out},
		{kind: "batchnorm", l: nn.NewBatchNorm2D(outC), in: out, out: out},
		{kind: "conv2d", l: nn.NewConv2D(outC, outC, 3, 1, 1, rng), in: out, out: out},
		{kind: "batchnorm", l: nn.NewBatchNorm2D(outC), in: out, out: out},
	}
	if inC != outC || stride != 1 {
		parts = append(parts,
			timedLayer{kind: "conv2d", l: nn.NewConv2D(inC, outC, 1, stride, 0, rng), in: in, out: out},
			timedLayer{kind: "batchnorm", l: nn.NewBatchNorm2D(outC), in: out, out: out})
	}
	return parts
}

// timeStandalone times a stand-alone layer's forward and backward pass on
// random inputs of its shapes.
func timeStandalone(tl timedLayer, reps int, rng *rand.Rand) timedLayer {
	x := randTensor(rng, tl.in...)
	dout := randTensor(rng, tl.out...)
	tl.fwd = timeIt(reps, func() { tl.l.Forward(x, true) })
	tl.bwd = timeIt(reps, func() {
		tl.l.Forward(x, true)
		tl.l.Backward(dout)
	}) - tl.fwd
	return tl
}

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return t
}

// gemmShape is one matrix product: kind "nn" is a·b with a (m,k) and b
// (k,n); "nt" is a·bᵀ with b (n,k); "tn" is aᵀ·b with a (k,m).
type gemmShape struct {
	kind    string
	m, n, k int
}

// convGEMMs lists a Conv2D's three products at input shape in: the forward
// W·cols and the backward dW = dout·colsᵀ and dcols = Wᵀ·dout.
func convGEMMs(c *nn.Conv2D, in []int) []gemmShape {
	oh, ow := c.OutSize(in[2]), c.OutSize(in[3])
	kk, cols := c.InC*c.Kernel*c.Kernel, in[0]*oh*ow
	return []gemmShape{{"nn", c.OutC, cols, kk}, {"nt", c.OutC, kk, cols}, {"tn", kk, cols, c.OutC}}
}

// denseGEMMs lists a Dense layer's three products at the given batch: the
// forward x·Wᵀ and the backward dW = doutᵀ·x and dx = dout·W.
func denseGEMMs(d *nn.Dense, batch int) []gemmShape {
	return []gemmShape{{"nt", batch, d.Out, d.In}, {"tn", d.Out, d.In, batch}, {"nn", batch, d.In, d.Out}}
}

// gemmRun returns a closure computing one product of shape g on random
// operands through the tensor package's *Into kernels.
func gemmRun(g gemmShape, rng *rand.Rand) func() {
	dst := tensor.New(g.m, g.n)
	switch g.kind {
	case "nt":
		a, b := randTensor(rng, g.m, g.k), randTensor(rng, g.n, g.k)
		return func() { tensor.MatMulTransBInto(dst, a, b) }
	case "tn":
		a, b := randTensor(rng, g.k, g.m), randTensor(rng, g.k, g.n)
		return func() { tensor.MatMulTransAInto(dst, a, b) }
	default:
		a, b := randTensor(rng, g.m, g.k), randTensor(rng, g.k, g.n)
		return func() { tensor.MatMulInto(dst, a, b) }
	}
}

// timeGEMMs returns the summed median µs of the given products.
func timeGEMMs(gs []gemmShape, reps int, rng *rand.Rand) float64 {
	var us float64
	for _, g := range gs {
		us += timeIt(reps, gemmRun(g, rng))
	}
	return us
}

// gflops returns the GEMM throughput over the given products.
func gflops(gs []gemmShape, reps int, rng *rand.Rand) float64 {
	var flops float64
	for _, g := range gs {
		flops += 2 * float64(g.m) * float64(g.n) * float64(g.k)
	}
	return ratio(flops, timeGEMMs(gs, reps, rng)*1e3)
}
