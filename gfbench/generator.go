package main

import (
	"math/rand"

	"goldfish"
)

// deletion-stream's request mix. The steady rate, the rows per request
// and the burst size follow the repository's own serve load profiles:
// internal/serve/profile.go draws Rate = 2 sample requests a round of 1–2
// rows each, and internal/bench/serve.go sizes its burst at QueueCap +
// QueueCap/2. The other values are synthetic choices, measured from no
// caller; README.md reports how ok_frac moves with the stale share.
const (
	streamRate       = 2                                     // sample requests every round
	streamMaxRows    = 2                                     // rows per sample request: uniform in [1, streamMaxRows]
	streamBurstEvery = 25                                    // a burst every streamBurstEvery rounds
	streamBurstSize  = streamQueueCap + (streamQueueCap+1)/2 // extra sample requests in a burst
	streamStaleFrac  = 0.1                                   // share of sample requests naming rows already deleted
	streamStaleLag   = 3                                     // rounds after which a requested row counts as deleted
	streamClassEvery = 40                                    // a class deletion at rounds 20, 60, …
	streamClassDrops = 2                                     // class deletions over the stream
	streamRemoveAt   = 62                                    // the round the last client is removed at
)

// arrival is one generated request, due at the start of round.
type arrival struct {
	req   goldfish.DeletionRequest
	stale bool
	round int
}

// stamped is a requested row and the round it was requested at.
type stamped struct{ row, round int }

// generator is deletion-stream's seeded, open-loop request source: each
// call to next yields the requests arriving at one round boundary, and the
// same seed yields the same stream. It needs no feedback from the program:
// it keeps every valid request valid by construction. Sample requests name
// only rows it never named before, never of a class it will delete, and
// never on the client it will remove; class deletions and the removal are
// scheduled up front. Stale requests name rows it requested at least
// streamStaleLag rounds earlier.
type generator struct {
	rng       *rand.Rand
	free      [][]int     // per client: rows never requested, eligible for sample requests
	requested [][]stamped // per client: rows requested so far
	sampleTo  int         // sample requests go to clients [0, sampleTo)
	drops     []int       // classes to delete, in order
	dropped   int
}

// newGenerator returns the stream over a federation whose labels hold, per
// client position, the label in [0, classes) of each original row. It needs
// at least two clients and three classes.
func newGenerator(labels [][]int, classes int, seed int64) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed)), sampleTo: len(labels) - 1}
	g.drops = g.rng.Perm(classes)[:streamClassDrops]
	doomed := map[int]bool{}
	for _, c := range g.drops {
		doomed[c] = true
	}
	g.free = make([][]int, len(labels))
	g.requested = make([][]stamped, len(labels))
	for c, ys := range labels {
		for row, y := range ys {
			if !doomed[y] {
				g.free[c] = append(g.free[c], row)
			}
		}
	}
	return g
}

// next returns the requests arriving at the start of round.
func (g *generator) next(round int) []arrival {
	var out []arrival
	n := streamRate
	if round > 0 && round%streamBurstEvery == 0 {
		n += streamBurstSize
	}
	for i := 0; i < n; i++ {
		if a, ok := g.sample(round); ok {
			out = append(out, a)
		}
	}
	if round%streamClassEvery == streamClassEvery/2 && g.dropped < len(g.drops) {
		out = append(out, arrival{round: round, req: goldfish.DeletionRequest{Kind: goldfish.DeleteClass, Class: g.drops[g.dropped]}})
		g.dropped++
	}
	if round == streamRemoveAt {
		out = append(out, arrival{round: round, req: goldfish.DeletionRequest{Kind: goldfish.DeleteClient, Client: g.sampleTo}})
	}
	return out
}

// sample generates one sample request: stale with probability
// streamStaleFrac when an old enough requested row exists, otherwise valid.
func (g *generator) sample(round int) (arrival, bool) {
	client := g.rng.Intn(g.sampleTo)
	stale := g.rng.Float64() < streamStaleFrac
	if stale {
		var old []int
		for _, s := range g.requested[client] {
			if s.round <= round-streamStaleLag {
				old = append(old, s.row)
			}
		}
		if len(old) > 0 {
			row := old[g.rng.Intn(len(old))]
			return arrival{round: round, stale: true, req: goldfish.DeletionRequest{Kind: goldfish.DeleteSample, Client: client, Rows: []int{row}}}, true
		}
	}
	free := g.free[client]
	k := min(1+g.rng.Intn(streamMaxRows), len(free))
	if k == 0 {
		return arrival{}, false
	}
	rows := make([]int, k)
	for i := range rows {
		j := g.rng.Intn(len(free))
		rows[i] = free[j]
		free[j] = free[len(free)-1]
		free = free[:len(free)-1]
		g.requested[client] = append(g.requested[client], stamped{row: rows[i], round: round})
	}
	g.free[client] = free
	return arrival{round: round, req: goldfish.DeletionRequest{Kind: goldfish.DeleteSample, Client: client, Rows: rows}}, true
}
