package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"goldfish"
	"goldfish/internal/obs"
)

// spec is one metric of the benchmark's contract (BENCHMARK.json).
type spec struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the engine sees, printed with -trace 0
// by every workload. Keep in step with BENCHMARK.json.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"train_samples_per_s", "1/s", "higher"},
	{"time_to_forget_s", "s", "lower"},
	{"test_acc", "ratio", "higher"},
	{"ok_frac", "ratio", "higher"},
	{"alloc_mb_per_round", "MB", "lower"},
}

// perLayer are the metrics of single layers, printed with -trace 1 by every
// workload (0 where a workload does not exercise the layer). Keep in step
// with BENCHMARK.json.
var perLayer = []spec{
	{"data.generate_s", "s", "lower"},
	{"unlearn.new_s", "s", "lower"},
	{"unlearn.request_us_p50", "us", "lower"},
	{"serve.enqueue_us_p50", "us", "lower"},
	{"serve.queue_depth_max", "count", "lower"},
	{"serve.queue_wait_rounds_p50", "rounds", "lower"},
	{"serve.batch_requests_mean", "count", "higher"},
	{"serve.coalesced_frac", "ratio", "higher"},
	{"serve.rejected_frac", "ratio", "lower"},
	{"fed.round_s_p50", "s", "lower"},
	{"fed.sample_s", "s", "lower"},
	{"fed.train_s", "s", "lower"},
	{"fed.score_s", "s", "lower"},
	{"fed.aggregate_s", "s", "lower"},
	{"fed.phase_coverage", "ratio", "higher"},
	{"fed.client_train_s_p50", "s", "lower"},
	{"fed.client_skew", "ratio", "lower"},
	{"fed.dropped_frac", "ratio", "lower"},
	{"metrics.score_us_per_update", "us", "lower"},
	{"core.epochs_run_frac", "ratio", "lower"},
	{"core.early_eval_us_per_row", "us", "lower"},
	{"core.retain_step_us", "us", "lower"},
	{"core.teacher_fwd_us", "us", "lower"},
	{"core.forget_step_us", "us", "lower"},
	{"loss.hard_us", "us", "lower"},
	{"loss.distill_us", "us", "lower"},
	{"loss.forget_us", "us", "lower"},
	{"optim.sgd_step_us", "us", "lower"},
	{"nn.conv2d.fwd_us", "us", "lower"},
	{"nn.conv2d.bwd_us", "us", "lower"},
	{"nn.conv2d.gemm_share", "ratio", "higher"},
	{"nn.batchnorm.fwd_us", "us", "lower"},
	{"nn.batchnorm.bwd_us", "us", "lower"},
	{"nn.dense.fwd_us", "us", "lower"},
	{"nn.dense.bwd_us", "us", "lower"},
	{"nn.pool.fwd_us", "us", "lower"},
	{"nn.pool.bwd_us", "us", "lower"},
	{"nn.bytes_per_step", "B", "lower"},
	{"tensor.gemm_gflops_serial", "GFLOP/s", "higher"},
	{"tensor.gemm_gflops_parallel", "GFLOP/s", "higher"},
	{"tensor.gemm_speedup", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// metric is one measured value as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one line of the readable report.
type row struct {
	name, unit, better string
	value              float64
	note               string
}

// check is one output check; any failed check fails the run.
type check struct {
	name   string
	ok     bool
	detail string
}

// bench collects one run's measurements, checks and operation counts.
type bench struct {
	workload string
	seed     int64
	traced   bool

	metrics map[string]float64 // contract metrics by name
	extra   []row              // workload-specific report lines
	checks  []check

	// attempted and failed count the run's operations, the ones that can
	// fail: single deletions and valid stream requests (README.md,
	// ok_frac).
	attempted, failed int

	setupS, generateS, newS []float64

	trace *traceSink // the traced pass's spans, nil untraced
}

func newBench(workload string, seed int64, traced bool) *bench {
	return &bench{workload: workload, seed: seed, traced: traced, metrics: map[string]float64{}}
}

// set records a contract metric.
func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// note records a report-only line.
func (b *bench) note(name string, v float64, unit, better, note string) {
	b.extra = append(b.extra, row{name: name, value: v, unit: unit, better: better, note: note})
}

// expect records an output check.
func (b *bench) expect(name string, ok bool, format string, args ...any) {
	b.checks = append(b.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// op counts one attempted operation and whether it failed.
func (b *bench) op(failed bool) {
	b.attempted++
	if failed {
		b.failed++
	}
}

// timeSetup runs one workload set-up, recording its wall time and the data
// generation and engine construction times it reports. Garbage left by
// earlier episodes is collected first, so that the set-up time does not
// depend on when the collector last ran.
func (b *bench) timeSetup(setup func() (gen, build time.Duration, err error)) error {
	runtime.GC()
	t := time.Now()
	gen, build, err := setup()
	if err != nil {
		return err
	}
	b.setupS = append(b.setupS, time.Since(t).Seconds())
	b.generateS = append(b.generateS, gen.Seconds())
	b.newS = append(b.newS, build.Seconds())
	return nil
}

// setupMaker sets up one episode from its seed, returning the
// data-generation and engine-construction times.
type setupMaker func(sub int64) (gen, build time.Duration, err error)

// setupsPerRun is how many throwaway set-ups a run times besides its
// episodes' own; setup_s is the median of all of them.
const setupsPerRun = 20

// setups times n throwaway set-ups of the first episode's inputs.
func (b *bench) setups(n int, setup setupMaker) error {
	for i := 0; i < n; i++ {
		err := b.timeSetup(func() (time.Duration, time.Duration, error) { return setup(subSeed(b.seed, 0)) })
		if err != nil {
			return err
		}
	}
	return nil
}

// episodes runs episode(k) for k = 0 … n−1. The count is fixed per
// workload, not set by the clock, so that the same seed measures the same
// inputs however fast the program runs. The throwaway set-ups are spread
// over the run, before each episode and after the last, so that setup_s
// samples the whole run and not only its start.
func (b *bench) episodes(n int, setup setupMaker, episode func(k int) error) error {
	per := (setupsPerRun + n) / (n + 1)
	for k := 0; k < n; k++ {
		if err := b.setups(per, setup); err != nil {
			return err
		}
		if err := episode(k); err != nil {
			return fmt.Errorf("episode %d: %w", k, err)
		}
	}
	return b.setups(per, setup)
}

// finish fills the metrics every workload shares.
func (b *bench) finish() {
	b.set("setup_s", median(b.setupS))
	b.set("data.generate_s", median(b.generateS))
	b.set("unlearn.new_s", median(b.newS))
	b.set("ok_frac", 1-ratio(float64(b.failed), float64(b.attempted)))
	b.note("peak_rss_mb", peakRSSMB(), "MB", "lower", "not gated: set by when the collector runs")
	b.note("failed_frac", ratio(float64(b.failed), float64(b.attempted)), "ratio", "lower",
		fmt.Sprintf("%d of %d operations", b.failed, b.attempted))
	b.expect("operations attempted", b.attempted > 0, "%d", b.attempted)
}

// contract returns the metric specs printed in the result line.
func (b *bench) contract() []spec {
	if b.traced {
		return perLayer
	}
	return endToEnd
}

// correct reports whether every output check passed and every contract
// metric was measured.
func (b *bench) correct() bool {
	for _, c := range b.checks {
		if !c.ok {
			return false
		}
	}
	for _, s := range b.contract() {
		if _, ok := b.metrics[s.name]; !ok {
			return false
		}
	}
	return true
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (b *bench) result() result {
	r := result{Correct: b.correct(), Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, s := range b.contract() {
		if v, ok := b.metrics[s.name]; ok {
			r.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		}
	}
	return r
}

// writeReport prints the readable report: every contract metric, the
// workload-specific lines and the checks.
func (b *bench) writeReport(w io.Writer) {
	mode := "end-to-end, untraced"
	if b.traced {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "gfbench %s seed=%d (%s) GOMAXPROCS=%d\n",
		b.workload, b.seed, mode, runtime.GOMAXPROCS(0))
	for _, s := range b.contract() {
		v, ok := b.metrics[s.name]
		if !ok {
			fmt.Fprintf(w, "  %-30s %14s %-8s\n", s.name, "MISSING", s.unit)
			continue
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-8s (%s is better)\n", s.name, v, s.unit, s.better)
	}
	for _, r := range b.extra {
		better := ""
		if r.better != "" {
			better = "(" + r.better + " is better)"
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-8s %s %s\n", r.name, r.value, r.unit, better, r.note)
	}
	for _, c := range b.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %s: %s\n", status, c.name, c.detail)
	}
}

// peakRSSMB returns the process's peak resident set size in MiB, from
// /proc/self/status (VmHWM), falling back to the Go runtime's reserved
// memory where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// rounds records the rounds one engine runs.
type rounds struct {
	localEpochs int // the client configuration's epoch budget

	wall  []float64 // wall seconds of each round
	rate  []float64 // training samples per second of each round
	alloc []float64 // MiB allocated during each round

	epochs, epochBudget int // local epochs run and budgeted, over clients and rounds
	updates, dropped    int // client updates attempted and dropped
}

// hook is the engine's round callback (WithRoundHook).
func (r *rounds) hook(rs goldfish.RoundStats) {
	r.updates += len(rs.Updates) + len(rs.Dropped)
	r.dropped += len(rs.Dropped)
}

// run executes one round of e, timing the Run call. The training samples
// of the round are Σ over clients of NumActive × LastEpochs.
func (r *rounds) run(ctx context.Context, e *goldfish.Engine) (time.Duration, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp := obs.FromContext(ctx).StartSpan("bench/run", obs.Int("round", e.Round()))
	t := time.Now()
	err := e.Run(ctx, 1)
	d := time.Since(t)
	sp.End()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return d, fmt.Errorf("round %d: %w", e.Round(), err)
	}
	samples := 0
	for i := 0; i < e.NumClients(); i++ {
		c := e.Client(i)
		samples += c.NumActive() * c.LastEpochs()
		r.epochs += c.LastEpochs()
		r.epochBudget += r.localEpochs
	}
	r.wall = append(r.wall, d.Seconds())
	r.rate = append(r.rate, float64(samples)/d.Seconds())
	r.alloc = append(r.alloc, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	return d, nil
}

// merge folds another engine's rounds into r.
func (r *rounds) merge(o *rounds) {
	r.wall = append(r.wall, o.wall...)
	r.rate = append(r.rate, o.rate...)
	r.alloc = append(r.alloc, o.alloc...)
	r.epochs += o.epochs
	r.epochBudget += o.epochBudget
	r.updates += o.updates
	r.dropped += o.dropped
}

// reportRounds records the round-level metrics. Client updates are not
// operations: in one process no update is dropped, so they could not fail
// (fed.dropped_frac reports them).
func (b *bench) reportRounds(r *rounds) {
	b.set("train_samples_per_s", median(r.rate))
	b.set("alloc_mb_per_round", median(r.alloc))
	b.set("fed.round_s_p50", median(r.wall))
	b.set("fed.dropped_frac", ratio(float64(r.dropped), float64(r.updates)))
	b.set("core.epochs_run_frac", ratio(float64(r.epochs), float64(r.epochBudget)))
	b.note("rounds", float64(len(r.wall)), "count", "", "engine rounds measured")
	b.note("client_updates", float64(r.updates), "count", "", fmt.Sprintf("%d dropped", r.dropped))
}

// finite checks that the engine's global state holds only finite numbers.
func (b *bench) finite(e *goldfish.Engine, what string) {
	b.expect("global state finite ("+what+")", allFinite(e.Global()), "round %d", e.Round())
}
