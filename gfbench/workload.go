package main

import (
	"context"
	"fmt"
	"time"

	"goldfish"
)

// subSeed derives the seed of episode k of a run from the workload seed
// (splitmix64), so every episode of a run has its own inputs and the same
// run seed always gives the same episodes. The result is positive.
func subSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>33) + 1
}

// envMaker sets up one episode of a single-deletion workload, returning
// the data-generation and engine-construction times.
type envMaker func(sub int64, r *rounds) (*forgetEnv, time.Duration, time.Duration, error)

// runForgetWorkload drives a single-deletion workload: n episodes, each
// with its own inputs. The traced variant runs one traced episode instead.
func runForgetWorkload(ctx context.Context, b *bench, mk envMaker, n, traceK int) ([]episode, error) {
	setup := func(sub int64) (time.Duration, time.Duration, error) {
		_, gen, build, err := mk(sub, &rounds{})
		return gen, build, err
	}
	if b.traced {
		if err := b.setups(setupsPerRun, setup); err != nil {
			return nil, err
		}
		ep, err := tracedEpisode(ctx, b, mk, traceK)
		return []episode{ep}, err
	}
	all := &rounds{}
	var eps []episode
	err := b.episodes(n, setup, func(k int) error {
		r := &rounds{}
		var env *forgetEnv
		err := b.timeSetup(func() (gen, build time.Duration, err error) {
			env, gen, build, err = mk(subSeed(b.seed, k), r)
			return gen, build, err
		})
		if err != nil {
			return err
		}
		ep, err := runEpisode(ctx, env, false)
		if err != nil {
			return err
		}
		env.checkRemoved(b)
		b.finite(env.e, fmt.Sprintf("episode %d", k))
		all.merge(r)
		eps = append(eps, ep)
		return nil
	})
	if err != nil {
		return nil, err
	}
	b.reportRounds(all)
	return eps, nil
}

// tracedEpisode runs traceK+1 untraced rounds, then one traced episode on
// the same inputs up to the round where forgetting holds, and probes the
// client step. The tracing overhead compares rounds 1..traceK of both
// engines; each engine's first round also pays for its lazy allocations.
func tracedEpisode(ctx context.Context, b *bench, mk envMaker, traceK int) (episode, error) {
	sub := subSeed(b.seed, 0)
	ref := &rounds{}
	refEnv, _, _, err := mk(sub, ref)
	if err != nil {
		return episode{}, err
	}
	for i := 0; i <= traceK; i++ {
		if _, err := ref.run(ctx, refEnv.e); err != nil {
			return episode{}, err
		}
	}

	sink := newTraceSink()
	b.trace = sink
	tctx := goldfish.WithObservability(ctx, sink.o)
	r := &rounds{}
	var env *forgetEnv
	err = b.timeSetup(func() (gen, build time.Duration, err error) {
		env, gen, build, err = mk(sub, r)
		return gen, build, err
	})
	if err != nil {
		return episode{}, err
	}
	ep, err := runEpisode(tctx, env, true)
	if err != nil {
		return ep, err
	}
	// The traced pass stops once forgetting holds, so its one operation
	// fails only if forgetting misses the cap.
	b.op(!ep.track.forgot())
	env.checkRemoved(b)
	b.finite(env.e, "traced episode")
	b.reportOverhead(ref.wall[1:traceK+1], r.wall[1:traceK+1])
	if _, err := sink.reportFed(b); err != nil {
		return ep, err
	}
	b.reportRounds(r)
	b.set("unlearn.request_us_p50", ep.callS*1e6)
	for _, name := range serveMetrics {
		b.set(name, 0)
	}
	return ep, probe(b, env.probe)
}
