package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"goldfish"
)

// traceSink keeps the traced pass's spans in memory until the run ends.
type traceSink struct {
	buf bytes.Buffer
	o   *goldfish.Observer
}

func newTraceSink() *traceSink {
	s := &traceSink{}
	s.o = goldfish.NewObserver(&s.buf)
	return s
}

// writeFile writes the spans out as JSON lines.
func (s *traceSink) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(path, s.buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// span is one finished span of the trace.
type span struct {
	attrs map[string]any
	durUS float64
}

// traceEvent is one JSON line of the observer's trace.
type traceEvent struct {
	Ev    string         `json:"ev"`
	ID    uint64         `json:"id"`
	Name  string         `json:"name"`
	DurUS float64        `json:"dur_us"`
	Attrs map[string]any `json:"attrs"`
}

// spans parses the trace into finished spans by name, in end order.
func (s *traceSink) spans() (map[string][]span, error) {
	if err := s.o.TraceErr(); err != nil {
		return nil, err
	}
	started := map[uint64]map[string]any{}
	out := map[string][]span{}
	sc := bufio.NewScanner(bytes.NewReader(s.buf.Bytes()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev traceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("trace line %q: %w", sc.Text(), err)
		}
		switch ev.Ev {
		case "start":
			started[ev.ID] = ev.Attrs
		case "end":
			out[ev.Name] = append(out[ev.Name], span{attrs: started[ev.ID], durUS: ev.DurUS})
			delete(started, ev.ID)
		}
	}
	return out, sc.Err()
}

// durations returns the durations of spans in seconds.
func durations(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.durUS / 1e6
	}
	return out
}

// reportFed records the engine-phase metrics of the traced pass from the
// fed.phase_us.* counters and the fed/* and bench/run spans.
func (s *traceSink) reportFed(b *bench) (map[string][]span, error) {
	spans, err := s.spans()
	if err != nil {
		return nil, err
	}
	rounds := float64(s.o.Counter("fed.rounds").Value())
	var phaseUS float64
	for _, ph := range []string{"sample", "train", "score", "aggregate"} {
		us := float64(s.o.Counter("fed.phase_us." + ph).Value())
		phaseUS += us
		b.set("fed."+ph+"_s", ratio(us/1e6, rounds))
	}
	var runUS float64
	for _, sp := range spans["bench/run"] {
		runUS += sp.durUS
	}
	b.set("fed.phase_coverage", ratio(phaseUS, runUS))
	b.set("metrics.score_us_per_update",
		ratio(float64(s.o.Counter("fed.phase_us.score").Value()), float64(s.o.Counter("fed.updates").Value())))

	clients := spans["fed/client_train"]
	b.set("fed.client_train_s_p50", median(durations(clients)))
	byRound := map[any][]float64{}
	for _, sp := range clients {
		byRound[sp.attrs["round"]] = append(byRound[sp.attrs["round"]], sp.durUS)
	}
	var skews []float64
	for _, ds := range byRound {
		skews = append(skews, ratio(quantile(ds, 1), median(ds)))
	}
	b.set("fed.client_skew", median(skews))
	return spans, nil
}

// reportOverhead compares the wall time of the same rounds run untraced
// and traced.
func (b *bench) reportOverhead(untraced, traced []float64) {
	var u, t float64
	for i := range untraced {
		u += untraced[i]
		t += traced[i]
	}
	b.set("trace.overhead_frac", ratio(t, u)-1)
	b.note("trace.base_s", u, "s", "", fmt.Sprintf("untraced wall time of the %d rounds the overhead compares", len(untraced)))
}

// serveMetrics are the deletion-service metrics; only deletion-stream has
// a service.
var serveMetrics = []string{
	"serve.enqueue_us_p50", "serve.queue_depth_max", "serve.queue_wait_rounds_p50",
	"serve.batch_requests_mean", "serve.coalesced_frac", "serve.rejected_frac",
}
