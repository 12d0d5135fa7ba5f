package bench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"goldfish/internal/obs"
	"goldfish/internal/serve"
	"goldfish/internal/unlearn"
)

// This file is the unlearning-as-a-service SLO benchmark behind
// `goldfish-bench -exp serve -profile burst -json SLO_N.json`: a federation
// run with the deletion-request service attached, driven by one of the
// deterministic load profiles (internal/serve), reporting sustained request
// throughput and p50/p99 forgetting latency alongside the training outcome.
// The "serverless" profile runs the identical federation with no service at
// all — its training section is the byte-identity baseline CI holds the
// "idle" profile to, proving an unloaded service never perturbs training.

// ServeOptions configures a service SLO run.
type ServeOptions struct {
	Options
	// Profile is a load profile name from serve.ProfileNames, or
	// "serverless" for the no-service baseline (default "steady").
	Profile string
	// QueueCap is the service's ingest-queue bound (default 8, small
	// enough that the burst profile exercises backpressure).
	QueueCap int
	// RecoveryRounds is the service's recovery window (default 1).
	RecoveryRounds int
	// Observer, when set, receives the run's spans and instruments (a CLI
	// -trace/-obs attachment); nil uses a private metrics-only observer.
	Observer *obs.Observer
}

// ServeTraining is the training outcome, stated so two runs can be diffed
// for byte-identity (the idle-service-vs-serverless CI gate).
type ServeTraining struct {
	Rounds int `json:"rounds"`
	// FinalStateSHA256 digests the final global state vector bit-exactly.
	FinalStateSHA256 string  `json:"final_state_sha256"`
	TestAccuracy     float64 `json:"test_accuracy"`
}

// ServeRequestStats is the request-side half of the SLO report.
type ServeRequestStats struct {
	// Generated counts requests the load profile produced; Retried counts
	// backpressure retries of those (each rejected request re-enters at the
	// next boundary until accepted).
	Generated int64 `json:"generated"`
	Retried   int64 `json:"retried"`
	// Dropped counts generated requests the service refused outright
	// (validation, e.g. a row a class deletion already consumed).
	Dropped int64 `json:"dropped"`
	// Lifetime service counters (serve.Stats).
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Coalesced int64 `json:"coalesced"`
	Applied   int64 `json:"applied"`
	Recovered int64 `json:"recovered"`
	Failed    int64 `json:"failed"`
	// RequestsPerSec is accepted requests over the run's wall time — the
	// sustained ingest throughput under this profile.
	RequestsPerSec float64 `json:"requests_per_sec"`
	// RoundsToForget / TimeToForgetMs are the settled forgetting-latency
	// quantiles (p50/p99, bucket resolution).
	RoundsToForget serve.Quantiles `json:"rounds_to_forget"`
	TimeToForgetMs serve.Quantiles `json:"time_to_forget_ms"`
}

// ServeReport is the machine-readable SLO artifact (SLO_*.json).
type ServeReport struct {
	SchemaVersion int    `json:"schema_version"`
	CreatedAt     string `json:"created_at"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	NumCPU        int    `json:"num_cpu"`

	Dataset        string  `json:"dataset"`
	Scale          string  `json:"scale"`
	Profile        string  `json:"profile"`
	QueueCap       int     `json:"queue_cap,omitempty"`
	RecoveryRounds int     `json:"recovery_rounds,omitempty"`
	WallSec        float64 `json:"wall_sec"`

	Training ServeTraining `json:"training"`
	// Requests is absent for the serverless baseline.
	Requests *ServeRequestStats `json:"requests,omitempty"`
}

// RunServe executes one service SLO run and assembles the report.
func RunServe(so ServeOptions) (*ServeReport, error) {
	opts := so.Options.withDefaults()
	if so.Profile == "" {
		so.Profile = "steady"
	}
	if so.QueueCap <= 0 {
		so.QueueCap = 8
	}
	if so.RecoveryRounds <= 0 {
		so.RecoveryRounds = 1
	}
	o := so.Observer
	if o == nil {
		o = obs.New(nil)
	}

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
	if rounds < 4 {
		rounds = 4 // enough boundaries for burst + backlog retry + recovery
	}

	rep := &ServeReport{
		SchemaVersion:  1,
		CreatedAt:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		Dataset:        "mnist",
		Scale:          string(s.opts.Scale),
		Profile:        so.Profile,
		RecoveryRounds: so.RecoveryRounds,
	}
	ctx := obs.NewContext(context.Background(), o)

	if so.Profile == "serverless" {
		start := time.Now()
		if err := f.Run(ctx, rounds, nil); err != nil {
			return nil, err
		}
		rep.WallSec = time.Since(start).Seconds()
		rep.Training, err = serveTraining(s, f, rounds)
		return rep, err
	}
	rep.QueueCap = so.QueueCap

	svc, err := serve.New(serve.Config{
		Federation:     f,
		QueueCap:       so.QueueCap,
		RecoveryRounds: so.RecoveryRounds,
		Observer:       o,
	})
	if err != nil {
		return nil, err
	}
	rowsPer := make([]int, len(parts))
	for i, p := range parts {
		rowsPer[i] = p.Len()
	}
	gen, err := serve.NewProfile(so.Profile, serve.ProfileConfig{
		Clients:       len(parts),
		RowsPerClient: rowsPer,
		Classes:       s.p.Model.Classes,
		Seed:          opts.Seed,
		// The burst overflows the queue by half its capacity, so the run
		// demonstrates both a full sustained queue and backpressure retry.
		BurstSize: so.QueueCap + (so.QueueCap+1)/2,
	})
	if err != nil {
		return nil, err
	}

	// The load generator composes with the service's own round hook: profile
	// arrivals (plus the backpressure backlog) are submitted first, then the
	// service drains the queue into the round's batch. New installed the
	// service hook; SetBeforeRound replaces it, so the closure must chain.
	var (
		backlog []serve.Request
		st      ServeRequestStats
	)
	f.SetBeforeRound(func(ctx context.Context, round int) error {
		arrivals := gen.Requests(round)
		st.Generated += int64(len(arrivals))
		pending := append(backlog, arrivals...)
		backlog = nil // rebuilt below; pending owns the old backing array
		for _, req := range pending {
			switch _, err := svc.Enqueue(req); {
			case errors.Is(err, serve.ErrQueueFull):
				backlog = append(backlog, req)
				st.Retried++
			case err != nil:
				st.Dropped++
			}
		}
		return svc.BeforeRound(ctx, round)
	})

	start := time.Now()
	if err := f.Run(ctx, rounds, nil); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	svc.Settle()

	stats := svc.Stats()
	st.Accepted = stats.Accepted
	st.Rejected = stats.Rejected
	st.Coalesced = stats.Coalesced
	st.Applied = stats.Applied
	st.Recovered = stats.Recovered
	st.Failed = stats.Failed
	st.RoundsToForget = stats.RoundsToForget
	st.TimeToForgetMs = stats.TimeToForgetMs
	if wall > 0 {
		st.RequestsPerSec = float64(stats.Accepted) / wall.Seconds()
	}
	rep.WallSec = wall.Seconds()
	rep.Requests = &st
	rep.Training, err = serveTraining(s, f, rounds)
	return rep, err
}

// serveTraining digests the run's training outcome.
func serveTraining(s *setup, f *unlearn.Federation, rounds int) (ServeTraining, error) {
	acc, err := s.accuracy(f.Global())
	if err != nil {
		return ServeTraining{}, err
	}
	return ServeTraining{
		Rounds:           rounds,
		FinalStateSHA256: stateDigest(f.Global()),
		TestAccuracy:     acc,
	}, nil
}

// stateDigest hashes a state vector bit-exactly (little-endian float64
// bits), so two training outcomes can be compared without shipping the
// vectors.
func stateDigest(state []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range state {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// WriteJSON writes the report, pretty-printed, to path.
func (r *ServeReport) WriteJSON(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding serve report: %w", err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("bench: writing serve report: %w", err)
	}
	return nil
}

// RenderText writes a human-readable SLO summary.
func (r *ServeReport) RenderText() string {
	var out strings.Builder
	fmt.Fprintf(&out, "serve SLO: profile %s on %s@%s, %d rounds in %.2fs\n",
		r.Profile, r.Dataset, r.Scale, r.Training.Rounds, r.WallSec)
	fmt.Fprintf(&out, "  training: accuracy %.2f%%, state %s\n",
		r.Training.TestAccuracy*100, r.Training.FinalStateSHA256[:12])
	if r.Requests == nil {
		out.WriteString("  requests: none (serverless baseline)\n")
		return out.String()
	}
	q := r.Requests
	fmt.Fprintf(&out, "  queue: cap %d, recovery %d rounds\n", r.QueueCap, r.RecoveryRounds)
	fmt.Fprintf(&out, "  requests: %d generated, %d accepted (%.1f/s), %d retried, %d rejected, %d dropped\n",
		q.Generated, q.Accepted, q.RequestsPerSec, q.Retried, q.Rejected, q.Dropped)
	fmt.Fprintf(&out, "  outcomes: %d coalesced, %d applied, %d recovered, %d failed\n",
		q.Coalesced, q.Applied, q.Recovered, q.Failed)
	fmt.Fprintf(&out, "  rounds-to-forget: p50 %.1f, p99 %.1f (n=%d)\n",
		q.RoundsToForget.P50, q.RoundsToForget.P99, q.RoundsToForget.Count)
	fmt.Fprintf(&out, "  time-to-forget: p50 %.1fms, p99 %.1fms\n",
		q.TimeToForgetMs.P50, q.TimeToForgetMs.P99)
	return out.String()
}
