package fed

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestFedAvgWeighting(t *testing.T) {
	updates := []ModelUpdate{
		{ClientID: 0, Params: []float64{1, 1}, NumSamples: 1},
		{ClientID: 1, Params: []float64{5, 5}, NumSamples: 3},
	}
	out, err := FedAvg{}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.25*1 + 0.75*5
	for _, v := range out {
		if math.Abs(v-want) > 1e-12 {
			t.Errorf("FedAvg = %g, want %g", v, want)
		}
	}
}

func TestFedAvgZeroSamplesFallsBackToMean(t *testing.T) {
	updates := []ModelUpdate{
		{Params: []float64{2}, NumSamples: 0},
		{Params: []float64{4}, NumSamples: 0},
	}
	out, err := FedAvg{}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-3) > 1e-12 {
		t.Errorf("mean fallback = %g, want 3", out[0])
	}
}

func TestAggregateErrors(t *testing.T) {
	if _, err := (FedAvg{}).Aggregate(nil); !errors.Is(err, ErrNoUpdates) {
		t.Errorf("empty updates: %v, want ErrNoUpdates", err)
	}
	mismatch := []ModelUpdate{
		{Params: []float64{1, 2}, NumSamples: 1},
		{Params: []float64{1}, NumSamples: 1},
	}
	if _, err := (FedAvg{}).Aggregate(mismatch); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := (FedAvg{}).Aggregate([]ModelUpdate{{Params: []float64{1}, NumSamples: -1}}); err == nil {
		t.Error("negative sample count accepted")
	}
	if _, err := (AdaptiveWeight{}).Aggregate([]ModelUpdate{{Params: []float64{1}, MSE: -1}}); err == nil {
		t.Error("negative MSE accepted")
	}
}

func TestAdaptiveWeightFavorsLowMSE(t *testing.T) {
	updates := []ModelUpdate{
		{ClientID: 0, Params: []float64{0}, MSE: 0.01}, // good model
		{ClientID: 1, Params: []float64{1}, MSE: 0.5},  // bad model
	}
	out, err := AdaptiveWeight{}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate must land much closer to the good model's params (0).
	if out[0] > 0.35 {
		t.Errorf("adaptive aggregate %g too close to bad model", out[0])
	}
	// Equal MSEs → plain average.
	equal := []ModelUpdate{
		{Params: []float64{0}, MSE: 0.3},
		{Params: []float64{1}, MSE: 0.3},
	}
	out, err = AdaptiveWeight{}.Aggregate(equal)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-0.5) > 1e-12 {
		t.Errorf("equal-MSE aggregate = %g, want 0.5", out[0])
	}
}

func TestAdaptiveWeightZeroMSE(t *testing.T) {
	updates := []ModelUpdate{
		{Params: []float64{0}, MSE: 0},
		{Params: []float64{2}, MSE: 0},
	}
	out, err := AdaptiveWeight{}.Aggregate(updates)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out[0]-1) > 1e-12 {
		t.Errorf("all-zero MSE should average: %g, want 1", out[0])
	}
}

// Property: adaptive weights are a probability distribution and
// monotonically favour lower MSE.
func TestQuickAdaptiveWeights(t *testing.T) {
	f := func(seedRaw uint32) bool {
		n := 2 + int(seedRaw%6)
		mses := make([]float64, n)
		v := float64(seedRaw%97) / 97
		for i := range mses {
			mses[i] = 0.05 + v*float64(i+1)/float64(n)
		}
		w := AdaptiveWeight{}.Weights(mses)
		var sum float64
		for i := range w {
			if w[i] <= 0 {
				return false
			}
			sum += w[i]
			if i > 0 && mses[i] > mses[i-1] && w[i] > w[i-1]+1e-12 {
				return false // higher MSE must not get higher weight
			}
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// stubTrainer returns fixed params and can be made to fail.
type stubTrainer struct {
	id      int
	params  []float64
	samples int
	fail    atomic.Bool
	calls   atomic.Int32
}

func (s *stubTrainer) TrainRound(_ context.Context, round int, global []float64) (ModelUpdate, error) {
	s.calls.Add(1)
	if s.fail.Load() {
		return ModelUpdate{}, fmt.Errorf("client %d down", s.id)
	}
	return ModelUpdate{ClientID: s.id, Round: round, Params: append([]float64(nil), s.params...), NumSamples: s.samples}, nil
}

// runEngine drives trainers through rounds rounds of an Engine over the
// in-process transport — the coordinator side of an in-process federation —
// and returns the final global vector.
func runEngine(ctx context.Context, cfg EngineConfig, initial []float64, trainers []LocalTrainer, rounds int) ([]float64, error) {
	e, err := NewEngine(cfg, initial, NewLocalTransport(trainers))
	if err != nil {
		return nil, err
	}
	if err := e.Run(ctx, rounds); err != nil {
		return nil, err
	}
	return e.Global(), nil
}

func TestCoordinatorRunsRounds(t *testing.T) {
	a := &stubTrainer{id: 0, params: []float64{1, 1}, samples: 10}
	b := &stubTrainer{id: 1, params: []float64{3, 3}, samples: 30}
	var rounds []int
	final, err := runEngine(context.Background(), EngineConfig{
		OnRound: func(ri RoundInfo) {
			rounds = append(rounds, ri.Round)
			if len(ri.Updates) != 2 {
				t.Errorf("round %d: %d updates, want 2", ri.Round, len(ri.Updates))
			}
			// The hook gets a copy: mutating it must not reach the engine.
			for i := range ri.Global {
				ri.Global[i] = math.NaN()
			}
		},
	}, []float64{0, 0}, []LocalTrainer{a, b}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.25*1 + 0.75*3
	if math.Abs(final[0]-want) > 1e-12 {
		t.Errorf("final global = %g, want %g", final[0], want)
	}
	if len(rounds) != 3 {
		t.Errorf("OnRound fired %d times, want 3", len(rounds))
	}
	if a.calls.Load() != 3 || b.calls.Load() != 3 {
		t.Errorf("trainer calls = %d/%d, want 3/3", a.calls.Load(), b.calls.Load())
	}
}

func TestCoordinatorDropsFailedClients(t *testing.T) {
	good := &stubTrainer{id: 0, params: []float64{2}, samples: 10}
	bad := &stubTrainer{id: 1, params: []float64{9}, samples: 10}
	bad.fail.Store(true)
	var sawDrop bool
	final, err := runEngine(context.Background(), EngineConfig{
		MinClients: 1,
		OnRound: func(ri RoundInfo) {
			if len(ri.Dropped) == 1 && ri.Dropped[0] == 1 {
				sawDrop = true
			}
		},
	}, []float64{0}, []LocalTrainer{good, bad}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if final[0] != 2 {
		t.Errorf("final = %g, want 2 (only good client)", final[0])
	}
	if !sawDrop {
		t.Error("dropped client not reported")
	}
}

func TestCoordinatorAbortsBelowMinClients(t *testing.T) {
	bad := &stubTrainer{id: 0, params: []float64{1}, samples: 1}
	bad.fail.Store(true)
	if _, err := runEngine(context.Background(), EngineConfig{MinClients: 1},
		[]float64{0}, []LocalTrainer{bad}, 1); err == nil {
		t.Error("run should fail when all clients fail")
	}
}

func TestCoordinatorScorerFeedsAggregator(t *testing.T) {
	a := &stubTrainer{id: 0, params: []float64{0}, samples: 1}
	b := &stubTrainer{id: 1, params: []float64{1}, samples: 1}
	scorer := ScorerFunc(func(params []float64) (float64, error) {
		return params[0], nil // param value as MSE: client b is "worse"
	})
	final, err := runEngine(context.Background(), EngineConfig{
		Aggregator: AdaptiveWeight{},
		Scorer:     scorer,
	}, []float64{0}, []LocalTrainer{a, b}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if final[0] >= 0.5 {
		t.Errorf("adaptive aggregate %g should favour the low-MSE client", final[0])
	}
}

func TestCoordinatorScorerError(t *testing.T) {
	a := &stubTrainer{id: 0, params: []float64{0}, samples: 1}
	if _, err := runEngine(context.Background(), EngineConfig{
		Scorer: ScorerFunc(func([]float64) (float64, error) { return 0, errors.New("probe broken") }),
	}, []float64{0}, []LocalTrainer{a}, 1); err == nil {
		t.Error("scorer error should abort the run")
	}
}

func TestCoordinatorCancellation(t *testing.T) {
	a := &stubTrainer{id: 0, params: []float64{1}, samples: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runEngine(ctx, EngineConfig{}, []float64{0}, []LocalTrainer{a}, 100); err == nil {
		t.Error("cancelled run should fail")
	}
	if a.calls.Load() != 0 {
		t.Errorf("cancelled run trained %d times", a.calls.Load())
	}
}

func TestEngineConfigValidation(t *testing.T) {
	tr := []LocalTrainer{&stubTrainer{params: []float64{1}, samples: 1}}
	ctx := context.Background()
	if _, err := NewEngine(EngineConfig{}, []float64{0}, nil); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := NewEngine(EngineConfig{}, nil, NewLocalTransport(tr)); err == nil {
		t.Error("empty initial params accepted")
	}
	if _, err := runEngine(ctx, EngineConfig{}, []float64{0}, nil, 1); err == nil {
		t.Error("round with no trainers succeeded")
	}
	// MinClients is clamped to the sampled participants (the unlearning
	// Federation rejects MinClients above its client count up front).
	if _, err := runEngine(ctx, EngineConfig{MinClients: 2}, []float64{0}, tr, 1); err != nil {
		t.Errorf("MinClients above the client count not clamped: %v", err)
	}
}

func TestTCPFederationEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Rounds:       3,
		NumClients:   2,
		Initial:      []float64{0, 0},
		RoundTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	serverDone := make(chan struct{})
	var serverFinal []float64
	var serverErr error
	go func() {
		defer close(serverDone)
		serverFinal, serverErr = srv.Serve(ctx, ln)
	}()

	addr := ln.Addr().String()
	clientDone := make(chan []float64, 2)
	clientErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			tr := &stubTrainer{id: i, params: []float64{float64(i + 1), float64(i + 1)}, samples: 10}
			final, err := RunClient(ctx, addr, tr)
			if err != nil {
				clientErrs <- err
				return
			}
			clientDone <- final
		}(i)
	}

	var clientFinals [][]float64
	for len(clientFinals) < 2 {
		select {
		case f := <-clientDone:
			clientFinals = append(clientFinals, f)
		case err := <-clientErrs:
			t.Fatalf("client failed: %v", err)
		case <-ctx.Done():
			t.Fatal("timed out waiting for clients")
		}
	}
	<-serverDone
	if serverErr != nil {
		t.Fatalf("server failed: %v", serverErr)
	}
	// Equal sample counts → average of 1 and 2 = 1.5.
	if math.Abs(serverFinal[0]-1.5) > 1e-12 {
		t.Errorf("server final = %g, want 1.5", serverFinal[0])
	}
	for _, f := range clientFinals {
		if math.Abs(f[0]-serverFinal[0]) > 1e-12 {
			t.Error("client received different final model than server computed")
		}
	}
}

func TestTCPServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{Rounds: 0, NumClients: 1, Initial: []float64{1}}); err == nil {
		t.Error("0 rounds accepted")
	}
	if _, err := NewServer(ServerConfig{Rounds: 1, NumClients: 0, Initial: []float64{1}}); err == nil {
		t.Error("0 clients accepted")
	}
	if _, err := NewServer(ServerConfig{Rounds: 1, NumClients: 1}); err == nil {
		t.Error("empty initial accepted")
	}
}

func TestTCPServerCancelledWhileWaiting(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Rounds: 1, NumClients: 1, Initial: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.Serve(ctx, ln)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled server should return an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not stop after cancellation")
	}
}

func TestRunClientConnectionRefused(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := RunClient(ctx, "127.0.0.1:1", &stubTrainer{params: []float64{1}})
	if err == nil {
		t.Error("connecting to a closed port should fail")
	}
}

func TestCoordinatorClientSampling(t *testing.T) {
	trainers := make([]LocalTrainer, 4)
	stubs := make([]*stubTrainer, 4)
	for i := range trainers {
		s := &stubTrainer{id: i, params: []float64{1}, samples: 10}
		stubs[i] = s
		trainers[i] = s
	}
	var perRound []int
	if _, err := runEngine(context.Background(), EngineConfig{
		ClientFraction: 0.5,
		SampleSeed:     3,
		OnRound:        func(ri RoundInfo) { perRound = append(perRound, len(ri.Updates)) },
	}, []float64{0}, trainers, 6); err != nil {
		t.Fatal(err)
	}
	for r, n := range perRound {
		if n != 2 {
			t.Errorf("round %d aggregated %d updates, want 2 (fraction 0.5 of 4)", r, n)
		}
	}
	var total int32
	for _, s := range stubs {
		total += s.calls.Load()
	}
	if total != 12 {
		t.Errorf("total trainer calls = %d, want 12 (2 per round × 6)", total)
	}
}

func TestCoordinatorClientFractionValidation(t *testing.T) {
	tr := []LocalTrainer{&stubTrainer{params: []float64{1}, samples: 1}}
	if _, err := NewEngine(EngineConfig{ClientFraction: -0.1}, []float64{0}, NewLocalTransport(tr)); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := NewEngine(EngineConfig{ClientFraction: 1.5}, []float64{0}, NewLocalTransport(tr)); err == nil {
		t.Error("fraction > 1 accepted")
	}
	// Tiny fraction still samples at least one client.
	if _, err := runEngine(context.Background(), EngineConfig{ClientFraction: 0.01}, []float64{0}, tr, 1); err != nil {
		t.Errorf("minimum-one sampling failed: %v", err)
	}
}

func TestTCPFederationAdaptiveWeights(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Rounds:     2,
		NumClients: 2,
		Initial:    []float64{0},
		Aggregator: AdaptiveWeight{},
		Scorer: ScorerFunc(func(params []float64) (float64, error) {
			return params[0] * params[0], nil // param magnitude as badness
		}),
		RoundTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan struct{})
	var final []float64
	var serveErr error
	go func() {
		defer close(done)
		final, serveErr = srv.Serve(ctx, ln)
	}()
	addr := ln.Addr().String()
	for i := 0; i < 2; i++ {
		go func(i int) {
			tr := &stubTrainer{id: i, params: []float64{float64(i) * 2}, samples: 10}
			_, _ = RunClient(ctx, addr, tr)
		}(i)
	}
	<-done
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	// Client 0 uploads 0 (MSE 0, better), client 1 uploads 2 (MSE 4):
	// adaptive aggregation must land well below the midpoint 1.
	if final[0] >= 1 {
		t.Errorf("adaptive TCP aggregate = %g, want < 1", final[0])
	}
}

// slowTrainer blocks until its context is cancelled, simulating a straggler
// that respects cancellation.
type slowTrainer struct{ id int }

func (s *slowTrainer) TrainRound(ctx context.Context, round int, _ []float64) (ModelUpdate, error) {
	<-ctx.Done()
	return ModelUpdate{}, ctx.Err()
}

func TestCoordinatorRoundTimeoutDropsStragglers(t *testing.T) {
	fast := &stubTrainer{id: 0, params: []float64{3}, samples: 1}
	slow := &slowTrainer{id: 1}
	var dropped []int
	start := time.Now()
	final, err := runEngine(context.Background(), EngineConfig{
		RoundTimeout: 50 * time.Millisecond,
		OnRound:      func(ri RoundInfo) { dropped = append(dropped, ri.Dropped...) },
	}, []float64{0}, []LocalTrainer{fast, slow}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("straggler blocked the run for %v", elapsed)
	}
	if final[0] != 3 {
		t.Errorf("final = %g, want the fast client's 3", final[0])
	}
	if len(dropped) != 2 || dropped[0] != 1 {
		t.Errorf("dropped = %v, want the straggler each round", dropped)
	}
}
