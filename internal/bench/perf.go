package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"goldfish/internal/obs"
	"goldfish/internal/tensor"
	"goldfish/internal/unlearn"
)

// This file is the persisted performance benchmark behind
// `goldfish-bench -exp perf -json BENCH_N.json`: op-level kernel throughput
// (serial vs parallel), federated per-round wall time, and end-to-end
// experiment time. Every PR appends a BENCH_*.json so the repo carries a
// perf trajectory to compare against.

// KernelResult is one matmul micro-benchmark at one shape, measured in both
// execution modes.
type KernelResult struct {
	// Op names the kernel (MatMul, MatMulTransA, MatMulTransB).
	Op string `json:"op"`
	// M, K, N are the problem dimensions: (M,K)·(K,N) (transposes are
	// reported in their logical orientation).
	M int `json:"m"`
	K int `json:"k"`
	N int `json:"n"`
	// SerialNsPerOp / ParallelNsPerOp are mean wall times per call.
	SerialNsPerOp   float64 `json:"serial_ns_per_op"`
	ParallelNsPerOp float64 `json:"parallel_ns_per_op"`
	// SerialGFLOPS / ParallelGFLOPS are the 2·M·K·N flop rates.
	SerialGFLOPS   float64 `json:"serial_gflops"`
	ParallelGFLOPS float64 `json:"parallel_gflops"`
	// Speedup is SerialNsPerOp / ParallelNsPerOp.
	Speedup float64 `json:"speedup"`
}

// RoundResult times the shared federated round engine end to end (local
// training on every client, scoring, aggregation) at one scale.
type RoundResult struct {
	Dataset    string  `json:"dataset"`
	Scale      string  `json:"scale"`
	Clients    int     `json:"clients"`
	Rounds     int     `json:"rounds"`
	TotalSec   float64 `json:"total_sec"`
	SecPerRnd  float64 `json:"sec_per_round"`
	ModelSize  int     `json:"model_params"`
	TrainRows  int     `json:"train_rows"`
	Aggregator string  `json:"aggregator"`
	// Phases breaks the measured rounds down by engine phase (sample →
	// train → score → aggregate), from the round engine's fed.phase_us.*
	// observability counters.
	Phases []PhaseTiming `json:"phases,omitempty"`
}

// PhaseTiming is one engine phase's share of the benchmarked rounds.
type PhaseTiming struct {
	// Phase is the engine phase name (sample, train, score, aggregate).
	Phase string `json:"phase"`
	// TotalSec is the phase's cumulative wall time across all rounds.
	TotalSec float64 `json:"total_sec"`
	// Share is TotalSec over the whole run's wall time, in [0,1].
	Share float64 `json:"share"`
}

// ExperimentResult is the end-to-end wall time of one registered paper
// experiment.
type ExperimentResult struct {
	ID      string  `json:"id"`
	Scale   string  `json:"scale"`
	Seconds float64 `json:"seconds"`
}

// PerfReport is the machine-readable benchmark artifact (BENCH_*.json).
type PerfReport struct {
	SchemaVersion int    `json:"schema_version"`
	CreatedAt     string `json:"created_at"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"num_cpu"`

	Kernels     []KernelResult     `json:"kernels"`
	Rounds      []RoundResult      `json:"rounds"`
	Experiments []ExperimentResult `json:"experiments,omitempty"`
}

// PerfOptions configures a benchmark run.
type PerfOptions struct {
	Options
	// KernelMinTime is the minimum measured wall time per kernel/mode
	// (default 100ms); reps adapt to reach it.
	KernelMinTime time.Duration
	// Experiments lists registered experiment IDs to run and time end to
	// end (empty: none).
	Experiments []string
	// Observer, when set, receives the run's spans and instruments (a CLI
	// -trace/-obs attachment). The phase breakdown works either way: with
	// no Observer a private metrics-only one supplies the counters.
	Observer *obs.Observer
}

// perfKernelShapes are the measured matmul problems. Batch dimensions are
// ≥64, matching the training shapes the acceptance benchmarks track.
var perfKernelShapes = []struct{ m, k, n int }{
	{64, 512, 512},
	{128, 512, 512},
	{64, 1152, 256}, // conv-style im2col panel (inC·k·k = 1152)
}

// RunPerf executes the benchmark suite and assembles the report.
func RunPerf(po PerfOptions) (*PerfReport, error) {
	opts := po.Options.withDefaults()
	if po.KernelMinTime <= 0 {
		po.KernelMinTime = 100 * time.Millisecond
	}
	rep := &PerfReport{
		SchemaVersion: 1,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
	}

	for _, s := range perfKernelShapes {
		rep.Kernels = append(rep.Kernels,
			benchKernel("MatMul", s.m, s.k, s.n, po.KernelMinTime),
			benchKernel("MatMulTransB", s.m, s.k, s.n, po.KernelMinTime),
			benchKernel("MatMulTransA", s.m, s.k, s.n, po.KernelMinTime),
		)
	}

	round, err := benchRound(opts, po.Observer)
	if err != nil {
		return nil, err
	}
	rep.Rounds = append(rep.Rounds, *round)

	for _, id := range po.Experiments {
		e, err := ByID(id)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := e.Run(opts); err != nil {
			return nil, fmt.Errorf("bench: perf: experiment %s: %w", id, err)
		}
		rep.Experiments = append(rep.Experiments, ExperimentResult{
			ID:      id,
			Scale:   string(opts.Scale),
			Seconds: time.Since(start).Seconds(),
		})
	}
	return rep, nil
}

// benchKernel measures one kernel shape in serial and parallel modes.
func benchKernel(op string, m, k, n int, minTime time.Duration) KernelResult {
	rng := rand.New(rand.NewSource(99))
	var call func()
	switch op {
	case "MatMul":
		a := tensor.New(m, k).RandNormal(rng, 0, 1)
		b := tensor.New(k, n).RandNormal(rng, 0, 1)
		dst := tensor.New(m, n)
		call = func() { tensor.MatMulInto(dst, a, b) }
	case "MatMulTransB":
		a := tensor.New(m, k).RandNormal(rng, 0, 1)
		b := tensor.New(n, k).RandNormal(rng, 0, 1)
		dst := tensor.New(m, n)
		call = func() { tensor.MatMulTransBInto(dst, a, b) }
	case "MatMulTransA":
		a := tensor.New(k, m).RandNormal(rng, 0, 1)
		b := tensor.New(k, n).RandNormal(rng, 0, 1)
		dst := tensor.New(m, n)
		call = func() { tensor.MatMulTransAInto(dst, a, b) }
	default:
		panic("bench: unknown kernel " + op)
	}

	flops := 2 * float64(m) * float64(k) * float64(n)
	res := KernelResult{Op: op, M: m, K: k, N: n}

	prev := tensor.ForceSerial(true)
	res.SerialNsPerOp = timeCall(call, minTime)
	tensor.ForceSerial(false)
	res.ParallelNsPerOp = timeCall(call, minTime)
	tensor.ForceSerial(prev)

	res.SerialGFLOPS = flops / res.SerialNsPerOp
	res.ParallelGFLOPS = flops / res.ParallelNsPerOp
	res.Speedup = res.SerialNsPerOp / res.ParallelNsPerOp
	return res
}

// timeCall returns the mean ns/op of call, adapting repetitions until the
// measured window reaches minTime.
func timeCall(call func(), minTime time.Duration) float64 {
	call() // warm up (pool start, cache fill)
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			call()
		}
		elapsed := time.Since(start)
		if elapsed >= minTime {
			return float64(elapsed.Nanoseconds()) / float64(reps)
		}
		grow := 2 * reps
		if elapsed > 0 {
			// Jump straight to the estimated rep count, capped at 100×.
			est := int(float64(reps) * float64(minTime) / float64(elapsed))
			if est > grow {
				grow = est
			}
			if grow > 100*reps {
				grow = 100 * reps
			}
		}
		reps = grow
	}
}

// enginePhases are the round-engine phases broken out in the perf report,
// matching the fed.phase_us.* counter suffixes.
var enginePhases = []string{"sample", "train", "score", "aggregate"}

// benchRound times federated rounds of the paper's MNIST preset at the
// requested scale through the shared round engine, attributing the wall time
// to engine phases via the engine's observability counters.
func benchRound(opts Options, o *obs.Observer) (*RoundResult, error) {
	s, err := newSetup("mnist", archFor("mnist"), opts)
	if err != nil {
		return nil, err
	}
	parts, err := s.partitionIID()
	if err != nil {
		return nil, err
	}
	f, err := unlearn.NewFederation(unlearn.Config{Client: s.clientConfig()}, parts)
	if err != nil {
		return nil, err
	}
	rounds := s.rounds
	if rounds < 2 {
		rounds = 2
	}
	if o == nil {
		o = obs.New(nil) // metrics-only: the phase counters still accumulate
	}
	before := make([]int64, len(enginePhases))
	for i, p := range enginePhases {
		before[i] = o.Counter("fed.phase_us." + p).Value()
	}
	start := time.Now()
	if err := f.Run(obs.NewContext(context.Background(), o), rounds, nil); err != nil {
		return nil, err
	}
	total := time.Since(start)
	res := &RoundResult{
		Dataset:    "mnist",
		Scale:      string(s.opts.Scale),
		Clients:    s.p.Clients,
		Rounds:     rounds,
		TotalSec:   total.Seconds(),
		SecPerRnd:  total.Seconds() / float64(rounds),
		ModelSize:  len(f.Global()),
		TrainRows:  s.train.Len(),
		Aggregator: "fedavg",
	}
	for i, p := range enginePhases {
		sec := float64(o.Counter("fed.phase_us."+p).Value()-before[i]) / 1e6
		var share float64
		if total > 0 {
			share = sec / total.Seconds()
		}
		res.Phases = append(res.Phases, PhaseTiming{Phase: p, TotalSec: sec, Share: share})
	}
	return res, nil
}

// WriteJSON writes the report, pretty-printed, to path.
func (r *PerfReport) WriteJSON(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding perf report: %w", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("bench: writing perf report: %w", err)
	}
	return nil
}

// RenderText writes a human-readable summary of the report.
func (r *PerfReport) RenderText() string {
	tbl := Table{
		Title:   fmt.Sprintf("Kernel throughput (GOMAXPROCS=%d, %s/%s, %s)", r.GOMAXPROCS, r.GOOS, r.GOARCH, r.GoVersion),
		Columns: []string{"op", "shape", "serial GFLOP/s", "parallel GFLOP/s", "speedup"},
	}
	for _, k := range r.Kernels {
		tbl.Rows = append(tbl.Rows, []string{
			k.Op,
			fmt.Sprintf("%dx%dx%d", k.M, k.K, k.N),
			fmt.Sprintf("%.2f", k.SerialGFLOPS),
			fmt.Sprintf("%.2f", k.ParallelGFLOPS),
			fmt.Sprintf("%.2fx", k.Speedup),
		})
	}
	var out strings.Builder
	tbl.Render(&out)
	for _, rd := range r.Rounds {
		fmt.Fprintf(&out, "round engine: %s@%s, %d clients, %d rounds: %.3fs/round (%d params, %d rows)\n",
			rd.Dataset, rd.Scale, rd.Clients, rd.Rounds, rd.SecPerRnd, rd.ModelSize, rd.TrainRows)
		if len(rd.Phases) > 0 {
			out.WriteString("  phase breakdown:")
			for _, p := range rd.Phases {
				fmt.Fprintf(&out, " %s %.1f%%", p.Phase, p.Share*100)
			}
			out.WriteByte('\n')
		}
	}
	for _, e := range r.Experiments {
		fmt.Fprintf(&out, "experiment %s@%s: %.2fs end to end\n", e.ID, e.Scale, e.Seconds)
	}
	return out.String()
}
