package main

import (
	"testing"
	"time"
)

func TestTrackerForgetsThenRecovers(t *testing.T) {
	tr := newTracker(0.9, 10, 0.5)
	steps := []struct{ wall, acc, hit float64 }{
		{1, 0.2, 0.3},   // neither
		{1, 0.5, 0.05},  // forgetting holds (≤ target)
		{1, 0.84, 0.01}, // accuracy still 0.06 short
		{1, 0.85, 0.02}, // recovered: 0.85 ≥ 0.9 − 0.05
	}
	for i, s := range steps {
		done := tr.observe(s.wall, s.acc, s.hit)
		if done != (i == len(steps)-1) {
			t.Fatalf("step %d: done = %v", i, done)
		}
	}
	if !tr.forgot() || tr.forgotRounds != 2 || tr.forgotS != 2.5 {
		t.Errorf("forgot after %d rounds, %.1f s; want 2 rounds, 2.5 s (deletion call included)", tr.forgotRounds, tr.forgotS)
	}
	if !tr.recovered() || tr.recoveredRounds != 4 || tr.recoveredS != 4.5 {
		t.Errorf("recovered after %d rounds, %.1f s; want 4 rounds, 4.5 s", tr.recoveredRounds, tr.recoveredS)
	}
}

func TestTrackerRecoveryNeedsForgetting(t *testing.T) {
	tr := newTracker(0.9, 10, 0)
	if tr.observe(1, 0.95, 0.2) {
		t.Fatal("recovered while the forgotten behaviour is still above target")
	}
	if tr.forgot() || tr.recovered() {
		t.Fatal("forgetting reported above target")
	}
}

func TestTrackerRoundCap(t *testing.T) {
	tr := newTracker(0.9, 3, 0)
	for i := 1; i <= 3; i++ {
		done := tr.observe(1, 0.1, 0.5)
		if done != (i == 3) {
			t.Fatalf("round %d: done = %v with a cap of 3", i, done)
		}
	}
	if tr.forgot() || tr.recovered() || tr.elapsed != 3 {
		t.Fatalf("capped tracker: forgot=%v recovered=%v elapsed=%g", tr.forgot(), tr.recovered(), tr.elapsed)
	}
}

// TestMissedForgetCountsAsFailed checks the failure accounting of the
// single-deletion workloads: a forget that misses the recovery target
// within the cap is a failed operation, timed at the cap.
func TestMissedForgetCountsAsFailed(t *testing.T) {
	hit := newTracker(0.9, 5, 0.1)
	hit.observe(1, 0.9, 0.0)
	miss := newTracker(0.9, 2, 0.1)
	miss.observe(1, 0.1, 0.5)
	miss.observe(1, 0.1, 0.5)

	b := newBench("test", 1, false)
	b.reportEpisodes([]episode{{preAcc: 0.9, track: hit}, {preAcc: 0.9, track: miss}}, "asr")
	if b.attempted != 2 || b.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", b.attempted, b.failed)
	}
	if got := b.metrics["time_to_forget_s"]; got != (1.1+2.1)/2 {
		t.Fatalf("time_to_forget_s = %g, want the median of 1.1 and the capped 2.1", got)
	}
}

// TestClientUpdatesAreNotOperations checks that round accounting leaves
// the operation count to the deletions: client updates are reported but
// cannot fail in one process.
func TestClientUpdatesAreNotOperations(t *testing.T) {
	b := newBench("test", 1, false)
	b.reportRounds(&rounds{wall: []float64{1}, rate: []float64{1}, alloc: []float64{1}, updates: 10, dropped: 2})
	if b.attempted != 0 || b.failed != 0 {
		t.Fatalf("attempted %d failed %d after a round report, want 0 and 0", b.attempted, b.failed)
	}
	if got := b.metrics["fed.dropped_frac"]; got != 0.2 {
		t.Fatalf("fed.dropped_frac = %g, want 0.2", got)
	}
}

// TestEpisodesFixedCount checks that a run measures a fixed number of
// episodes and spreads the throwaway set-ups around them.
func TestEpisodesFixedCount(t *testing.T) {
	b := newBench("test", 1, false)
	var ran []int
	setup := func(int64) (time.Duration, time.Duration, error) { return 0, 0, nil }
	if err := b.episodes(3, setup, func(k int) error { ran = append(ran, k); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 3 || ran[0] != 0 || ran[2] != 2 {
		t.Fatalf("episodes ran %v, want [0 1 2]", ran)
	}
	if len(b.setupS) < setupsPerRun {
		t.Fatalf("%d set-ups timed, want at least %d", len(b.setupS), setupsPerRun)
	}
}
