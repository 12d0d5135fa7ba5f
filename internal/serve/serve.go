// Package serve turns a federated-unlearning run into a long-lived service:
// a bounded ingest queue of deletion requests (sample rows, whole classes,
// whole clients) that fold into the federation at round boundaries. All
// requests pending when a round starts coalesce into one batched unlearning
// step — duplicates and subsumed requests merged — applied through the
// unlearn.Federation deletion plumbing; a full queue pushes back explicitly
// (ErrQueueFull / HTTP 429) instead of growing without bound.
//
// Every accepted request becomes a Ticket tracking its lifecycle
// (queued → applied → recovered, or failed) with per-request rounds-to-forget
// and time-to-forget landing in the serve.* observability histograms — the
// substrate for the p50/p99 forgetting-latency SLO report
// (internal/bench RunServe, `goldfish-bench -exp serve`).
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"goldfish/internal/obs"
	"goldfish/internal/unlearn"
)

// Kind classifies a deletion request.
type Kind string

// The three deletion-request kinds.
const (
	// KindSample deletes specific rows of one client's ORIGINAL dataset.
	KindSample Kind = "sample"
	// KindClass deletes every remaining sample of one label class, across
	// all clients.
	KindClass Kind = "class"
	// KindClient removes one participant entirely, unlearning its remaining
	// data.
	KindClient Kind = "client"
)

// Request is one deletion request as submitted (the HTTP body of
// POST /unlearn, or the in-process Enqueue argument).
type Request struct {
	// Kind selects what is deleted: "sample", "class" or "client".
	Kind Kind `json:"kind"`
	// Client is the target participant's current position (sample and
	// client kinds).
	Client int `json:"client,omitempty"`
	// Rows are original-dataset row indices to delete (sample kind).
	Rows []int `json:"rows,omitempty"`
	// Class is the label class to delete (class kind).
	Class int `json:"class,omitempty"`
}

// Status is a ticket's lifecycle state.
type Status string

// Ticket lifecycle states.
const (
	// StatusQueued: accepted, waiting for the next round boundary.
	StatusQueued Status = "queued"
	// StatusApplied: folded into the federation; recovery rounds pending.
	StatusApplied Status = "applied"
	// StatusRecovered: the configured recovery rounds completed — the
	// request is forgotten, its latency settled into the histograms.
	StatusRecovered Status = "recovered"
	// StatusFailed: the batched application was rejected by the federation.
	StatusFailed Status = "failed"
)

// Ticket is the auditable record of one accepted deletion request.
type Ticket struct {
	// ID is the service-unique request id, in acceptance order.
	ID int64 `json:"id"`
	// Request is the request as submitted.
	Request
	// Status is the current lifecycle state.
	Status Status `json:"status"`
	// Coalesced marks a request whose effect was merged into another
	// request of the same batch (duplicate or subsumed); it shares that
	// application's fate.
	Coalesced bool `json:"coalesced,omitempty"`
	// EnqueuedRound is the number of completed rounds at acceptance.
	EnqueuedRound int `json:"enqueued_round"`
	// AppliedRound is the round boundary the request was folded in at.
	AppliedRound int `json:"applied_round,omitempty"`
	// RecoveredRound is the round boundary the request settled at.
	RecoveredRound int `json:"recovered_round,omitempty"`
	// Err is the federation's rejection (failed tickets).
	Err string `json:"error,omitempty"`

	// Observer-relative timestamps feeding the time-to-forget histogram.
	enqueuedAt time.Duration
	appliedAt  time.Duration
}

// ErrQueueFull is returned by Enqueue when the ingest queue is at capacity;
// the caller should retry after roughly one round (HTTP: 429 + Retry-After).
var ErrQueueFull = errors.New("serve: deletion queue full")

// Config configures a Service.
type Config struct {
	// Federation is the run the service feeds deletions into. Required.
	// The service installs itself as the federation's round-boundary hook;
	// drive the federation from one goroutine as usual — only Enqueue and
	// the read-side accessors are safe to call concurrently.
	Federation *unlearn.Federation
	// QueueCap bounds the number of queued (not yet applied) requests;
	// Enqueue rejects beyond it. Defaults to 64.
	QueueCap int
	// RecoveryRounds is how many rounds after application a request is
	// considered recovered ("forgotten") and its latency settles. Defaults
	// to 1.
	RecoveryRounds int
	// Observer receives the serve.* instruments (queue depth, request
	// counters, forgetting-latency histograms). Pass the observer the run's
	// context carries so everything lands in one registry; nil uses a
	// private metrics-only observer (Stats still works).
	Observer *obs.Observer
}

// counts aggregates the request counters mirrored to the observer (kept
// locally so Stats works without scanning the registry).
type counts struct {
	Accepted  int64
	Rejected  int64
	Coalesced int64
	Applied   int64
	Recovered int64
	Failed    int64
}

// view is the enqueue-time validation snapshot of the federation's shape,
// refreshed under the service lock at every round boundary. Enqueue must not
// touch the federation itself: it runs on caller goroutines while the run
// goroutine may be mutating membership.
type view struct {
	clients int
	partLen []int
	classes int
}

// Service is the deletion-request service: a bounded queue drained into the
// federation at every round boundary. Create one with New; it attaches
// itself via Federation.SetBeforeRound. Enqueue, Stats, Lookup, QueueDepth
// and RetryAfter are safe for concurrent use.
type Service struct {
	fed      *unlearn.Federation
	obs      *obs.Observer
	queueCap int
	recovery int

	mu       sync.Mutex
	nextID   int64
	queue    []*Ticket
	inflight []*Ticket
	history  []*Ticket
	counts   counts
	view     view
	round    int
	// Round-boundary times (observer-relative) estimating round duration
	// for Retry-After.
	lastRoundAt time.Duration
	prevRoundAt time.Duration
	roundsSeen  int
}

// historyCap bounds the settled-ticket ring (memory stays bounded no matter
// how long the service runs).
const historyCap = 256

// New validates the configuration and attaches the service to its
// federation's round boundary.
func New(cfg Config) (*Service, error) {
	if cfg.Federation == nil {
		return nil, fmt.Errorf("serve: nil federation")
	}
	if cfg.QueueCap < 0 {
		return nil, fmt.Errorf("serve: negative queue capacity %d", cfg.QueueCap)
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 64
	}
	if cfg.RecoveryRounds < 0 {
		return nil, fmt.Errorf("serve: negative recovery rounds %d", cfg.RecoveryRounds)
	}
	if cfg.RecoveryRounds == 0 {
		cfg.RecoveryRounds = 1
	}
	o := cfg.Observer
	if o == nil {
		o = obs.New(nil) // metrics-only: Stats and quantiles still work
	}
	s := &Service{
		fed:      cfg.Federation,
		obs:      o,
		queueCap: cfg.QueueCap,
		recovery: cfg.RecoveryRounds,
		round:    cfg.Federation.Round(),
	}
	s.refreshViewLocked()
	s.fed.SetBeforeRound(s.BeforeRound)
	return s, nil
}

// refreshViewLocked re-reads the federation's shape. Callers must either
// hold s.mu or be the only goroutine with the service (New).
func (s *Service) refreshViewLocked() {
	n := s.fed.NumClients()
	v := view{clients: n, partLen: make([]int, n)}
	for i := 0; i < n; i++ {
		if p := s.fed.Partition(i); p != nil {
			v.partLen[i] = p.Len()
			v.classes = p.Classes
		}
	}
	s.view = v
}

// Enqueue validates and queues a deletion request, returning its ticket (a
// copy; the service keeps the canonical record — follow it with Lookup).
// A full queue returns ErrQueueFull. Safe for concurrent use, including
// while the federation is running.
func (s *Service) Enqueue(req Request) (Ticket, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.validateLocked(req); err != nil {
		return Ticket{}, err
	}
	if len(s.queue) >= s.queueCap {
		s.counts.Rejected++
		s.obs.Counter("serve.requests.rejected").Inc()
		return Ticket{}, ErrQueueFull
	}
	s.nextID++
	t := &Ticket{
		ID:            s.nextID,
		Request:       req,
		Status:        StatusQueued,
		EnqueuedRound: s.round,
		enqueuedAt:    s.obs.Elapsed(),
	}
	s.queue = append(s.queue, t)
	s.counts.Accepted++
	s.obs.Counter("serve.requests.accepted").Inc()
	s.obs.Gauge("serve.queue_depth").Set(float64(len(s.queue)))
	return *t, nil
}

// validateLocked checks a request against the round-boundary view of the
// federation. The view can be one batch stale (membership may change before
// this request applies), so this is a fast sanity filter; the batched
// application is the authoritative check and failures there mark the ticket
// failed.
func (s *Service) validateLocked(req Request) error {
	switch req.Kind {
	case KindSample:
		if req.Client < 0 || req.Client >= s.view.clients {
			return fmt.Errorf("serve: client %d out of range [0,%d)", req.Client, s.view.clients)
		}
		if len(req.Rows) == 0 {
			return fmt.Errorf("serve: client %d: empty row list", req.Client)
		}
		for _, r := range req.Rows {
			if r < 0 || r >= s.view.partLen[req.Client] {
				return fmt.Errorf("serve: client %d: row %d out of range [0,%d)",
					req.Client, r, s.view.partLen[req.Client])
			}
		}
	case KindClass:
		if req.Class < 0 || req.Class >= s.view.classes {
			return fmt.Errorf("serve: class %d out of range [0,%d)", req.Class, s.view.classes)
		}
	case KindClient:
		if req.Client < 0 || req.Client >= s.view.clients {
			return fmt.Errorf("serve: client %d out of range [0,%d)", req.Client, s.view.clients)
		}
	default:
		return fmt.Errorf("serve: unknown request kind %q", req.Kind)
	}
	return nil
}

// BeforeRound is the federation's round-boundary hook (installed by New):
// it settles recovered tickets, then drains and coalesces the queue into
// one batched unlearning step. Exposed so harnesses can compose it with
// their own hooks via Federation.SetBeforeRound.
func (s *Service) BeforeRound(ctx context.Context, round int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.round = round
	s.prevRoundAt, s.lastRoundAt = s.lastRoundAt, s.obs.Elapsed()
	s.roundsSeen++
	s.settleLocked(round)

	if len(s.queue) == 0 {
		return nil
	}
	drained := s.queue
	s.queue = nil
	s.obs.Gauge("serve.queue_depth").Set(0)
	s.applyBatchLocked(drained, round)
	s.refreshViewLocked()
	return nil
}

// Settle resolves tickets whose recovery rounds completed by the end of a
// run. BeforeRound settles continuously while rounds keep coming; call this
// after the final Run returns so the last batch's recoveries are counted
// (there is no next round boundary to do it).
func (s *Service) Settle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleLocked(s.fed.Round())
}

// settleLocked marks inflight tickets recovered once `round` completed
// rounds include their recovery window, observing the forgetting-latency
// histograms.
func (s *Service) settleLocked(round int) {
	remaining := s.inflight[:0]
	for _, t := range s.inflight {
		if round < t.AppliedRound+s.recovery {
			remaining = append(remaining, t)
			continue
		}
		t.Status = StatusRecovered
		t.RecoveredRound = round
		now := s.obs.Elapsed()
		rounds := t.RecoveredRound - t.EnqueuedRound
		ms := float64((now - t.enqueuedAt).Microseconds()) / 1e3
		s.counts.Recovered++
		s.obs.Counter("serve.requests.recovered").Inc()
		s.obs.Histogram("serve.rounds_to_forget", obs.RoundBuckets).Observe(float64(rounds))
		s.obs.Histogram("serve.time_to_forget_ms", obs.MillisBuckets).Observe(ms)
		s.obs.Event("serve/forgotten", obs.Int("id", int(t.ID)), obs.Int("rounds", rounds), obs.F64("ms", ms))
		s.retireLocked(t)
	}
	s.inflight = remaining
}

// group is one coalesced application: the tickets riding on it share its
// fate (applied together, failed together).
type group struct {
	tickets []*Ticket
	rows    []int // sample groups: the merged row set
}

// applyBatchLocked coalesces the drained tickets and applies the batch in a
// deterministic order: per-client sample deletions (ascending client),
// class deletions (ascending class), client removals (descending position,
// so earlier removals cannot shift later targets). Sample deletions go
// first because class deletions re-query the remaining rows — overlap
// resolves naturally instead of double-removing. A failed application marks
// only its own group's tickets failed; the round proceeds.
func (s *Service) applyBatchLocked(drained []*Ticket, round int) {
	samples := map[int]*group{}
	classes := map[int]*group{}
	removals := map[int]*group{}

	// Pass 1: client removals and class deletions, deduplicated.
	for _, t := range drained {
		switch t.Kind {
		case KindClient:
			if g, ok := removals[t.Client]; ok {
				s.coalesceLocked(t, g)
				continue
			}
			removals[t.Client] = &group{tickets: []*Ticket{t}}
		case KindClass:
			if g, ok := classes[t.Class]; ok {
				s.coalesceLocked(t, g)
				continue
			}
			classes[t.Class] = &group{tickets: []*Ticket{t}}
		}
	}
	// Pass 2: sample deletions — subsumed by a pending removal of the same
	// client, otherwise merged into that client's row union. A request the
	// federation would reject on its own (e.g. a row an earlier batch
	// already removed) fails alone, so it cannot fail the union it would
	// have joined.
	for _, t := range drained {
		if t.Kind != KindSample {
			continue
		}
		if g, ok := removals[t.Client]; ok {
			s.coalesceLocked(t, g) // the whole client is going away
			continue
		}
		if err := s.fed.CheckDeletionRows(t.Client, t.Rows); err != nil {
			s.finishGroupLocked(&group{tickets: []*Ticket{t}}, err, round)
			continue
		}
		g, ok := samples[t.Client]
		if !ok {
			g = &group{}
			samples[t.Client] = g
		}
		fresh := false
		for _, r := range t.Rows {
			if !contains(g.rows, r) {
				g.rows = append(g.rows, r)
				fresh = true
			}
		}
		if !fresh {
			s.coalesceLocked(t, g) // every row already requested this batch
			continue
		}
		g.tickets = append(g.tickets, t)
	}

	for _, client := range sortedKeys(samples) {
		g := samples[client]
		sort.Ints(g.rows)
		s.finishGroupLocked(g, s.fed.RequestDeletionRows(client, g.rows), round)
	}
	for _, class := range sortedKeys(classes) {
		_, err := s.fed.RequestClassDeletion(class)
		s.finishGroupLocked(classes[class], err, round)
	}
	removalOrder := sortedKeys(removals)
	for i := len(removalOrder) - 1; i >= 0; i-- {
		client := removalOrder[i]
		s.finishGroupLocked(removals[client], s.fed.RemoveClient(client, true), round)
	}
}

// coalesceLocked merges ticket t into group g: its effect is covered by the
// group's application, whose fate it shares.
func (s *Service) coalesceLocked(t *Ticket, g *group) {
	t.Coalesced = true
	s.counts.Coalesced++
	s.obs.Counter("serve.requests.coalesced").Inc()
	g.tickets = append(g.tickets, t)
}

// finishGroupLocked records one application's outcome on every ticket of
// its group.
func (s *Service) finishGroupLocked(g *group, err error, round int) {
	now := s.obs.Elapsed()
	for _, t := range g.tickets {
		if err != nil {
			t.Status = StatusFailed
			t.Err = err.Error()
			s.counts.Failed++
			s.obs.Counter("serve.requests.failed").Inc()
			s.retireLocked(t)
			continue
		}
		t.Status = StatusApplied
		t.AppliedRound = round
		t.appliedAt = now
		s.counts.Applied++
		s.obs.Counter("serve.requests.applied").Inc()
		s.inflight = append(s.inflight, t)
	}
}

// retireLocked moves a settled ticket into the bounded history ring.
func (s *Service) retireLocked(t *Ticket) {
	if len(s.history) >= historyCap {
		copy(s.history, s.history[1:])
		s.history = s.history[:historyCap-1]
	}
	s.history = append(s.history, t)
}

// Lookup returns a copy of the ticket with the given id, searching the
// queue, the inflight set and the bounded history (old settled tickets age
// out).
func (s *Service) Lookup(id int64) (Ticket, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, set := range [][]*Ticket{s.queue, s.inflight, s.history} {
		for _, t := range set {
			if t.ID == id {
				return *t, true
			}
		}
	}
	return Ticket{}, false
}

// QueueDepth returns the number of queued (not yet applied) requests.
func (s *Service) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// QueueCap returns the queue capacity.
func (s *Service) QueueCap() int { return s.queueCap }

// RecoveryRounds returns the configured recovery window.
func (s *Service) RecoveryRounds() int { return s.recovery }

// RetryAfter estimates how long a rejected caller should wait before
// retrying: roughly one round (the queue drains at round boundaries),
// estimated from the last two boundaries and never less than a second.
func (s *Service) RetryAfter() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.roundsSeen < 2 {
		return time.Second
	}
	est := s.lastRoundAt - s.prevRoundAt
	if est < time.Second {
		return time.Second
	}
	return est.Round(time.Second)
}

// Quantiles summarizes one forgetting-latency histogram.
type Quantiles struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// Stats is a point-in-time summary of the service (GET /unlearn/stats).
type Stats struct {
	// Round is the latest round boundary the service has seen.
	Round int `json:"round"`
	// QueueDepth / QueueCap describe the ingest queue.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// Inflight is the number of applied requests awaiting recovery.
	Inflight int `json:"inflight"`
	// Request counters over the service's lifetime.
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Coalesced int64 `json:"coalesced"`
	Applied   int64 `json:"applied"`
	Recovered int64 `json:"recovered"`
	Failed    int64 `json:"failed"`
	// RoundsToForget / TimeToForgetMs are the settled forgetting-latency
	// quantiles (bucket-resolution estimates).
	RoundsToForget Quantiles `json:"rounds_to_forget"`
	TimeToForgetMs Quantiles `json:"time_to_forget_ms"`
}

// Stats assembles the current summary.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Round:      s.round,
		QueueDepth: len(s.queue),
		QueueCap:   s.queueCap,
		Inflight:   len(s.inflight),
		Accepted:   s.counts.Accepted,
		Rejected:   s.counts.Rejected,
		Coalesced:  s.counts.Coalesced,
		Applied:    s.counts.Applied,
		Recovered:  s.counts.Recovered,
		Failed:     s.counts.Failed,
	}
	snap := s.obs.Snapshot()
	for _, h := range snap.Histograms {
		q := Quantiles{Count: h.Count, P50: h.P50, P99: h.P99}
		switch h.Name {
		case "serve.rounds_to_forget":
			st.RoundsToForget = q
		case "serve.time_to_forget_ms":
			st.TimeToForgetMs = q
		}
	}
	return st
}

// contains reports whether sorted-or-not slice xs holds x (row unions stay
// small — queue-capacity bounded — so linear scans beat allocating maps).
func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// sortedKeys returns m's keys in ascending order: batch application order
// must not depend on map iteration.
func sortedKeys(m map[int]*group) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
