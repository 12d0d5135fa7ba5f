package main

import (
	"context"
	"fmt"
	"time"

	"goldfish"
	"goldfish/internal/obs"
)

// Recovery targets of the single-deletion workloads.
const (
	// forgetTarget bounds the forgotten behaviour: the backdoor's attack
	// success rate, or the accuracy on the deleted class.
	forgetTarget = 0.05
	// accSlack is how far below its pre-deletion value the retained
	// accuracy may sit once recovered.
	accSlack = 0.05
	// recoverCap is the round cap after a deletion; a forget that has not
	// met the recovery target by then counts as failed.
	recoverCap = 12
)

// tracker follows one deletion from the deletion call to the recovery
// target, one round at a time. Forgetting holds once the forgotten
// behaviour is at most forgetTarget; recovery holds once, in the same
// round, the retained accuracy is also back within accSlack of its
// pre-deletion value.
type tracker struct {
	preAcc float64
	cap    int

	elapsed float64 // seconds since the deletion call, evaluation excluded
	rounds  int

	forgotRounds, recoveredRounds int // 0 until reached
	forgotS, recoveredS           float64
	acc, hit                      float64 // latest evaluation
}

func newTracker(preAcc float64, cap int, callS float64) *tracker {
	return &tracker{preAcc: preAcc, cap: cap, elapsed: callS}
}

// observe records one round: its wall time and the evaluation after it.
// It reports whether tracking is over: recovered, or the cap reached.
func (t *tracker) observe(wallS, acc, hit float64) bool {
	t.rounds++
	t.elapsed += wallS
	t.acc, t.hit = acc, hit
	if hit <= forgetTarget && t.forgotRounds == 0 {
		t.forgotRounds, t.forgotS = t.rounds, t.elapsed
	}
	if hit <= forgetTarget && acc >= t.preAcc-accSlack {
		t.recoveredRounds, t.recoveredS = t.rounds, t.elapsed
		return true
	}
	return t.rounds >= t.cap
}

// forgot reports whether forgetting held within the cap.
func (t *tracker) forgot() bool { return t.forgotRounds > 0 }

// recovered reports whether the recovery target held within the cap.
func (t *tracker) recovered() bool { return t.recoveredRounds > 0 }

// episode is the outcome of one single-deletion episode.
type episode struct {
	preAcc, preHit float64 // before the deletion
	callS          float64 // the deletion call's wall time
	track          *tracker
}

// forgetEnv is what a single-deletion workload exposes to the shared
// episode driver.
type forgetEnv struct {
	e      *goldfish.Engine
	r      *rounds
	minPre int // pre-training rounds
	maxPre int // pre-training round cap
	// ready reports, after a pre-training round at or beyond minPre,
	// whether the model is ready for the deletion.
	ready func(acc, hit float64) bool
	// eval returns the retained accuracy and the forgotten behaviour.
	eval func() (acc, hit float64, err error)
	// remove issues the deletion.
	remove func() error
	// checkRemoved checks that the deleted rows are gone.
	checkRemoved func(*bench)
	// probe is the client step the traced pass times.
	probe probeInput
}

// runEpisode pre-trains, issues the deletion and runs rounds until the
// recovery target holds or the cap is reached. With untilForgot it stops
// as soon as forgetting holds (the traced pass).
func runEpisode(ctx context.Context, env *forgetEnv, untilForgot bool) (episode, error) {
	var ep episode
	for k := 1; k <= env.maxPre; k++ {
		if _, err := env.r.run(ctx, env.e); err != nil {
			return ep, err
		}
		if k < env.minPre {
			continue
		}
		acc, hit, err := evalTraced(ctx, env.eval)
		if err != nil {
			return ep, err
		}
		ep.preAcc, ep.preHit = acc, hit
		if env.ready(acc, hit) {
			break
		}
	}
	sp := obs.FromContext(ctx).StartSpan("bench/delete")
	t := time.Now()
	err := env.remove()
	ep.callS = time.Since(t).Seconds()
	sp.End()
	if err != nil {
		return ep, fmt.Errorf("deletion: %w", err)
	}
	ep.track = newTracker(ep.preAcc, recoverCap, ep.callS)
	for {
		d, err := env.r.run(ctx, env.e)
		if err != nil {
			return ep, err
		}
		acc, hit, err := evalTraced(ctx, env.eval)
		if err != nil {
			return ep, err
		}
		if ep.track.observe(d.Seconds(), acc, hit) || (untilForgot && ep.track.forgot()) {
			return ep, nil
		}
	}
}

// evalTraced runs eval inside a bench/eval span.
func evalTraced(ctx context.Context, eval func() (float64, float64, error)) (float64, float64, error) {
	sp := obs.FromContext(ctx).StartSpan("bench/eval")
	defer sp.End()
	return eval()
}

// reportEpisodes records the forgetting metrics of the single-deletion
// workloads. hitName names the forgotten behaviour (asr or
// forget_class_acc). A forget that misses the recovery target within the
// cap counts as a failed operation; its time to forget is taken at the cap,
// a lower bound.
func (b *bench) reportEpisodes(eps []episode, hitName string) {
	var ttf, rtf, ttr, rtr, acc, preHit, postHit, call []float64
	for _, ep := range eps {
		t := ep.track
		b.op(!t.recovered())
		call = append(call, ep.callS*1e6)
		acc = append(acc, t.acc)
		preHit = append(preHit, ep.preHit)
		postHit = append(postHit, t.hit)
		if t.forgot() {
			ttf = append(ttf, t.forgotS)
			rtf = append(rtf, float64(t.forgotRounds))
		} else {
			ttf = append(ttf, t.elapsed)
			rtf = append(rtf, float64(t.rounds))
		}
		if t.recovered() {
			ttr = append(ttr, t.recoveredS)
			rtr = append(rtr, float64(t.recoveredRounds))
		}
	}
	n := fmt.Sprintf("median of %d deletions", len(eps))
	b.set("time_to_forget_s", median(ttf))
	b.set("test_acc", median(acc))
	b.set("unlearn.request_us_p50", median(call))
	b.note("rounds_to_forget", median(rtf), "rounds", "lower", n)
	b.note("time_to_recover_s", median(ttr), "s", "lower", fmt.Sprintf("median of %d recovered", len(ttr)))
	b.note("rounds_to_recover", median(rtr), "rounds", "lower", fmt.Sprintf("median of %d recovered", len(rtr)))
	b.note(hitName+"_before", median(preHit), "ratio", "", n)
	b.note(hitName, median(postHit), "ratio", "lower", n+", at the target round")
}
