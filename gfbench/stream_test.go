package main

import (
	"context"
	"testing"
)

// TestStreamAccounting runs a short deletion stream against the real
// service and checks the failure accounting: every valid request ends
// recovered, failed or missed, failed valid requests are operations that
// failed, and stale requests stay out of the operation count.
func TestStreamAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a federation")
	}
	env, _, _, err := newStreamEnv(subSeed(3, 0), &rounds{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := &streamStats{}
	if err := runStreamEpisode(context.Background(), env, st, 60); err != nil {
		t.Fatal(err)
	}
	b := newBench("deletion-stream", 3, false)
	if err := st.finishEpisode(b, env, "test"); err != nil {
		t.Fatal(err)
	}
	st.report(b)
	for _, c := range b.checks {
		if !c.ok {
			t.Errorf("check %s failed: %s", c.name, c.detail)
		}
	}
	v := st.valid
	if v.generated == 0 || st.stale.generated == 0 {
		t.Fatalf("stream too small: %d valid, %d stale", v.generated, st.stale.generated)
	}
	if b.attempted != v.generated || b.failed != v.generated-v.recovered {
		t.Fatalf("operations %d/%d failed, want %d/%d", b.failed, b.attempted, v.generated-v.recovered, v.generated)
	}
	if st.queueFull == 0 {
		t.Error("the burst never filled the queue")
	}
	if len(st.ttf) != v.recovered {
		t.Errorf("%d latencies for %d recovered requests", len(st.ttf), v.recovered)
	}
}
