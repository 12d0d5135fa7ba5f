package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"goldfish"
	"goldfish/internal/obs"
	"goldfish/internal/serve"
)

// deletion-stream: a long-lived deletion service over the MNIST preset
// with an MLP (no Conv2D), fed an open-loop request stream on the round
// clock. Every round is an unlearning round.
const (
	streamQueueCap = 8   // the service's queue capacity, the serve harness's default (internal/bench/serve.go)
	streamEpisodes = 12  // episodes per run
	streamRounds   = 100 // arrival rounds per episode
	streamDrain    = 10  // rounds after the arrivals for the last requests to recover
	streamAttempts = 5   // a request refused (queue full) this many times counts as failed
	streamTraceK   = 50  // rounds the tracing overhead compares
)

// streamEnv is one deletion-stream episode.
type streamEnv struct {
	e     *goldfish.Engine
	svc   *goldfish.DeletionService
	gen   *generator
	r     *rounds
	probe probeInput
}

func newStreamEnv(sub int64, r *rounds, o *goldfish.Observer) (*streamEnv, time.Duration, time.Duration, error) {
	p, err := goldfish.NewPresetWithArch("mnist", goldfish.ArchMLP, goldfish.ScaleSmall, sub)
	if err != nil {
		return nil, 0, 0, err
	}
	t := time.Now()
	train, _, err := p.Generate()
	gen := time.Since(t)
	if err != nil {
		return nil, 0, 0, err
	}
	parts, err := goldfish.PartitionIID(train, 5, rand.New(rand.NewSource(sub)))
	if err != nil {
		return nil, 0, 0, err
	}
	cfg := p.ClientConfig()
	r.localEpochs = cfg.LocalEpochs
	t = time.Now()
	e, err := goldfish.New(
		goldfish.WithPreset(p),
		goldfish.WithPartitions(parts),
		goldfish.WithUnlearner("goldfish"),
		goldfish.WithRoundHook(r.hook),
	)
	if err != nil {
		return nil, 0, 0, err
	}
	svc, err := e.NewDeletionService(goldfish.DeletionServiceConfig{QueueCap: streamQueueCap, RecoveryRounds: 1, Observer: o})
	build := time.Since(t)
	if err != nil {
		return nil, 0, 0, err
	}
	labels := make([][]int, len(parts))
	for i, pt := range parts {
		labels[i] = pt.Y
	}
	return &streamEnv{
		e:     e,
		svc:   svc,
		gen:   newGenerator(labels, train.Classes, sub),
		r:     r,
		probe: probeInput{cfg: cfg, data: parts[0], forget: parts[0]},
	}, gen, build, nil
}

// request is one generated request as the benchmark follows it.
type request struct {
	arrival
	due      time.Time // when it arrived, at its round's boundary
	id       int64     // ticket id once accepted
	attempts int
	waited   bool // queue wait recorded
}

// streamStats accumulates deletion-stream's request outcomes.
type streamStats struct {
	valid, stale streamOutcome

	ttf, ttfRounds, queueWait []float64
	enqueueUS                 []float64
	depthMax                  int
	batches                   []float64
	fateShared                int     // valid requests failed by a stale one in their batch
	queueFull                 int     // Enqueue calls refused because the queue was full
	coalesced                 int64   // tickets the service merged into another request
	wallS                     float64 // measured wall time of the episodes' rounds
	acc                       []float64
}

// streamOutcome counts one class of requests by outcome.
type streamOutcome struct {
	generated, accepted, refused, recovered, failed, missed int
}

// runStreamEpisode feeds one episode's stream to the service: the arrivals
// of the given number of rounds, then up to streamDrain rounds for the
// last requests to recover. Requests refused because the queue is full are
// retried at the next round boundary, keeping their arrival time.
func runStreamEpisode(ctx context.Context, env *streamEnv, st *streamStats, rounds int) error {
	var outstanding, retry []*request
	start := time.Now()
	o := obs.FromContext(ctx)
	for round := 0; round < rounds+streamDrain; round++ {
		if round >= rounds && len(outstanding) == 0 && len(retry) == 0 {
			break
		}
		now := time.Now()
		batch := retry
		retry = nil
		if round < rounds {
			for _, a := range env.gen.next(round) {
				batch = append(batch, &request{arrival: a, due: now})
				st.outcome(a.stale).generated++
			}
		}
		for _, rq := range batch {
			sp := o.StartSpan("bench/enqueue")
			t := time.Now()
			tk, err := env.svc.Enqueue(rq.req)
			st.enqueueUS = append(st.enqueueUS, float64(time.Since(t).Nanoseconds())/1e3)
			sp.End()
			rq.attempts++
			if errors.Is(err, goldfish.ErrDeletionQueueFull) {
				st.queueFull++
			}
			switch {
			case errors.Is(err, goldfish.ErrDeletionQueueFull) && rq.attempts < streamAttempts:
				retry = append(retry, rq)
			case err != nil:
				st.outcome(rq.stale).refused++
			default:
				rq.id = tk.ID
				st.outcome(rq.stale).accepted++
				outstanding = append(outstanding, rq)
			}
		}
		if d := env.svc.QueueDepth(); d > 0 {
			st.depthMax = max(st.depthMax, d)
			st.batches = append(st.batches, float64(d))
		}
		if _, err := env.r.run(ctx, env.e); err != nil {
			return err
		}
		env.svc.Settle()
		done := time.Now()
		outstanding = st.settle(env.svc, outstanding, done)
	}
	st.wallS += time.Since(start).Seconds()
	for _, rq := range outstanding {
		st.outcome(rq.stale).missed++
	}
	for _, rq := range retry {
		st.outcome(rq.stale).refused++
	}
	return nil
}

func (st *streamStats) outcome(stale bool) *streamOutcome {
	if stale {
		return &st.stale
	}
	return &st.valid
}

// settle follows the outstanding tickets after a round, recording the
// settled ones and returning those still open.
func (st *streamStats) settle(svc *goldfish.DeletionService, outstanding []*request, now time.Time) []*request {
	open := outstanding[:0]
	for _, rq := range outstanding {
		tk, ok := svc.Lookup(rq.id)
		if !ok {
			open = append(open, rq)
			continue
		}
		if !rq.waited && tk.AppliedRound > 0 {
			st.queueWait = append(st.queueWait, float64(tk.AppliedRound-tk.EnqueuedRound))
			rq.waited = true
		}
		switch tk.Status {
		case serve.StatusRecovered:
			st.outcome(rq.stale).recovered++
			if !rq.stale {
				st.ttf = append(st.ttf, now.Sub(rq.due).Seconds())
				st.ttfRounds = append(st.ttfRounds, float64(tk.RecoveredRound-rq.round))
			}
		case serve.StatusFailed:
			st.outcome(rq.stale).failed++
			if !rq.stale && strings.Contains(tk.Err, "already removed") {
				st.fateShared++
			}
		default:
			open = append(open, rq)
		}
	}
	return open
}

func runStream(ctx context.Context, b *bench) error {
	setup := func(sub int64) (time.Duration, time.Duration, error) {
		_, gen, build, err := newStreamEnv(sub, &rounds{}, nil)
		return gen, build, err
	}
	if b.traced {
		if err := b.setups(setupsPerRun, setup); err != nil {
			return err
		}
		return tracedStream(ctx, b)
	}
	st := &streamStats{}
	all := &rounds{}
	err := b.episodes(streamEpisodes, setup, func(k int) error {
		r := &rounds{}
		var env *streamEnv
		err := b.timeSetup(func() (gen, build time.Duration, err error) {
			env, gen, build, err = newStreamEnv(subSeed(b.seed, k), r, nil)
			return gen, build, err
		})
		if err != nil {
			return err
		}
		if err := runStreamEpisode(ctx, env, st, streamRounds); err != nil {
			return err
		}
		all.merge(r)
		return st.finishEpisode(b, env, fmt.Sprintf("episode %d", k))
	})
	if err != nil {
		return err
	}
	b.reportRounds(all)
	st.report(b)
	return nil
}

// finishEpisode checks an episode's outputs and ticket accounting and
// records its final accuracy.
func (st *streamStats) finishEpisode(b *bench, env *streamEnv, what string) error {
	b.finite(env.e, what)
	acc, err := env.e.TestAccuracy(nil)
	if err != nil {
		return err
	}
	st.acc = append(st.acc, acc)
	s := env.svc.Stats()
	st.coalesced += s.Coalesced
	b.expect("ticket accounting balances ("+what+")",
		s.Accepted == s.Recovered+s.Failed+int64(s.Inflight+s.QueueDepth),
		"accepted %d = recovered %d + failed %d + open %d", s.Accepted, s.Recovered, s.Failed, s.Inflight+s.QueueDepth)
	return nil
}

// report records deletion-stream's request metrics. Valid requests are
// operations; stale ones are scored apart.
func (st *streamStats) report(b *bench) {
	v := st.valid
	b.expect("every valid request accounted for",
		v.generated == v.accepted+v.refused && v.accepted == v.recovered+v.failed+v.missed,
		"generated %d = accepted %d + refused %d; accepted = recovered %d + failed %d + missed window %d",
		v.generated, v.accepted, v.refused, v.recovered, v.failed, v.missed)
	for i := 0; i < v.generated; i++ {
		b.op(i >= v.recovered)
	}
	b.set("time_to_forget_s", median(st.ttf))
	b.set("test_acc", median(st.acc))
	n := len(st.ttf)
	samples := fmt.Sprintf("n=%d recovered valid requests", n)
	if float64(n)*0.1 >= 10 {
		b.note("time_to_forget_s_p90", quantile(st.ttf, 0.9), "s", "lower", samples)
	}
	// The tail rule: the highest percentile with ten samples beyond it.
	switch pct, val, ok := tail(st.ttf); {
	case !ok:
		b.note("time_to_forget_s_tail", 0, "s", "lower", samples+": too few for a tail")
	case pct != 90:
		b.note(fmt.Sprintf("time_to_forget_s_p%g", pct), val, "s", "lower", samples)
	}
	b.note("rounds_to_forget", median(st.ttfRounds), "rounds", "lower", fmt.Sprintf("p50, n=%d", n))
	b.note("deletions_per_s", ratio(float64(v.recovered), st.wallS), "1/s", "higher", "valid requests recovered per second of rounds")
	b.note("valid_failed_fate_shared", float64(st.fateShared), "count", "lower",
		fmt.Sprintf("of %d valid failed: rejected with a stale request coalesced into their batch", v.failed))
	b.note("stale_requests", float64(st.stale.generated), "count", "",
		fmt.Sprintf("%d failed as expected, %d recovered, %d refused", st.stale.failed, st.stale.recovered, st.stale.refused))
	b.set("serve.enqueue_us_p50", median(st.enqueueUS))
	b.set("serve.queue_depth_max", float64(st.depthMax))
	b.set("serve.queue_wait_rounds_p50", median(st.queueWait))
	b.set("serve.batch_requests_mean", mean(st.batches))
	b.set("serve.coalesced_frac", ratio(float64(st.coalesced), float64(v.accepted+st.stale.accepted)))
	b.set("serve.rejected_frac", ratio(float64(st.queueFull), float64(len(st.enqueueUS))))
}

// tracedStream runs streamTraceK+1 untraced rounds of the stream, then one
// traced episode on the same inputs, and probes the client step. The
// tracing overhead compares rounds 1..streamTraceK of both engines.
func tracedStream(ctx context.Context, b *bench) error {
	sub := subSeed(b.seed, 0)
	ref := &rounds{}
	refEnv, _, _, err := newStreamEnv(sub, ref, nil)
	if err != nil {
		return err
	}
	if err := runStreamEpisode(ctx, refEnv, &streamStats{}, streamTraceK+1); err != nil {
		return err
	}

	sink := newTraceSink()
	b.trace = sink
	tctx := goldfish.WithObservability(ctx, sink.o)
	r := &rounds{}
	st := &streamStats{}
	var env *streamEnv
	err = b.timeSetup(func() (gen, build time.Duration, err error) {
		env, gen, build, err = newStreamEnv(sub, r, sink.o)
		return gen, build, err
	})
	if err != nil {
		return err
	}
	if err := runStreamEpisode(tctx, env, st, streamRounds); err != nil {
		return err
	}
	if err := st.finishEpisode(b, env, "traced episode"); err != nil {
		return err
	}
	b.reportOverhead(ref.wall[1:streamTraceK+1], r.wall[1:streamTraceK+1])
	spans, err := sink.reportFed(b)
	if err != nil {
		return err
	}
	b.reportRounds(r)
	st.report(b)
	b.set("unlearn.request_us_p50", 1e6*median(durations(spans["unlearn/forget"])))
	return probe(b, env.probe)
}
