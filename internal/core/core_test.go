package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"goldfish/internal/data"
	"goldfish/internal/fed"
	"goldfish/internal/loss"
	"goldfish/internal/metrics"
	"goldfish/internal/model"
	"goldfish/internal/optim"
)

// testConfig returns a fast configuration for tiny synthetic data.
func testConfig(classes int) Config {
	return Config{
		Model:       model.Config{Arch: model.ArchMLP, InC: 1, InH: 12, InW: 12, Classes: classes, Seed: 1},
		Loss:        loss.NewGoldfish(),
		Opt:         optim.SGDConfig{LR: 0.1, Momentum: 0.9, ClipNorm: 5},
		LocalEpochs: 3,
		BatchSize:   32,
		TempAlpha:   1,
		Seed:        1,
	}
}

func tinyMNIST(t *testing.T) (train, test *data.Dataset) {
	t.Helper()
	spec, err := data.SpecMNIST(data.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err = data.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return train, test
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(10).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := testConfig(10)
	bad.LocalEpochs = 0
	if err := bad.Validate(); err == nil {
		t.Error("0 epochs accepted")
	}
	bad = testConfig(10)
	bad.BatchSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("0 batch accepted")
	}
	bad = testConfig(10)
	bad.EarlyDelta = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative delta accepted")
	}
	bad = testConfig(10)
	bad.AdaptiveTemp = true
	bad.TempAlpha = 0
	if err := bad.Validate(); err == nil {
		t.Error("adaptive temp without alpha accepted")
	}
}

func TestAdaptiveTemperature(t *testing.T) {
	// Eq. 11 at |Dr|=90, |Df|=10: T = α·T0·exp(−0.9).
	got := AdaptiveTemperature(1, 3, 90, 10)
	want := 3 * math.Exp(-0.9)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("T = %g, want %g", got, want)
	}
	// Clamped at 1 when the formula would sharpen labels.
	if got := AdaptiveTemperature(1, 1, 100, 1); got != 1 {
		t.Errorf("T = %g, want clamp at 1", got)
	}
	// Larger removed fraction raises the temperature (more smoothing).
	small := AdaptiveTemperature(1, 5, 95, 5)
	large := AdaptiveTemperature(1, 5, 50, 50)
	if large <= small {
		t.Errorf("T should grow with removed fraction: %g vs %g", small, large)
	}
	// Empty data falls back to α·T0 (clamped).
	if got := AdaptiveTemperature(1, 3, 0, 0); got != 3 {
		t.Errorf("empty data T = %g, want 3", got)
	}
}

func TestNewClientErrors(t *testing.T) {
	train, _ := tinyMNIST(t)
	if _, err := NewClient(0, testConfig(10), nil); err == nil {
		t.Error("nil dataset accepted")
	}
	bad := testConfig(10)
	bad.BatchSize = 0
	if _, err := NewClient(0, bad, train); err == nil {
		t.Error("invalid config accepted")
	}
	shardCfg := testConfig(10)
	shardCfg.Shards = 10_000 // more shards than samples
	if _, err := NewClient(0, shardCfg, train); err == nil {
		t.Error("impossible shard count accepted")
	}
}

func TestRequestDeletionValidation(t *testing.T) {
	train, _ := tinyMNIST(t)
	c, err := NewClient(0, testConfig(10), train)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RequestDeletion(nil); err == nil {
		t.Error("empty request accepted")
	}
	if err := c.RequestDeletion([]int{-1}); err == nil {
		t.Error("negative row accepted")
	}
	if err := c.RequestDeletion([]int{train.Len()}); err == nil {
		t.Error("out-of-range row accepted")
	}
	if err := c.RequestDeletion([]int{0, 1, 2}); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	if c.NumActive() != train.Len()-3 {
		t.Errorf("NumActive = %d, want %d", c.NumActive(), train.Len()-3)
	}
	if err := c.RequestDeletion([]int{1}); err == nil {
		t.Error("double removal accepted")
	}
	// A second, distinct request merges.
	if err := c.RequestDeletion([]int{5}); err != nil {
		t.Fatalf("second request rejected: %v", err)
	}
	if c.NumActive() != train.Len()-4 {
		t.Errorf("NumActive = %d after merge, want %d", c.NumActive(), train.Len()-4)
	}
}

func TestShardedClientDeletion(t *testing.T) {
	train, test := tinyMNIST(t)
	cfg := testConfig(10)
	cfg.Shards = 6
	c, err := NewClient(0, cfg, train)
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() == nil || c.Shards().NumShards() != 6 {
		t.Fatal("shard manager not created")
	}

	ctx := context.Background()
	initNet, err := buildModel(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	global := initNet.StateVector()
	u, err := c.TrainRound(ctx, 0, global)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumSamples != train.Len() {
		t.Errorf("NumSamples = %d, want %d", u.NumSamples, train.Len())
	}

	// Delete a handful of rows from one shard's territory.
	victim := c.Shards().Shard(2).Indices[:3]
	rows := append([]int(nil), victim...)
	if err := c.RequestDeletion(rows); err != nil {
		t.Fatal(err)
	}
	affected := c.Shards().AffectedShards(rows)
	if len(affected) != 1 || affected[0] != 2 {
		t.Fatalf("AffectedShards = %v, want [2]", affected)
	}
	u, err = c.TrainRound(ctx, 1, u.Params)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumSamples != train.Len()-3 {
		t.Errorf("post-deletion NumSamples = %d, want %d", u.NumSamples, train.Len()-3)
	}
	// Removed rows must be gone from every shard.
	for si := 0; si < c.Shards().NumShards(); si++ {
		for _, idx := range c.Shards().Shard(si).Indices {
			for _, r := range rows {
				if idx == r {
					t.Fatal("removed row still present in a shard")
				}
			}
		}
	}
	// The aggregate must still be a working model.
	if err := initNet.SetStateVector(u.Params); err != nil {
		t.Fatal(err)
	}
	if acc := metrics.Accuracy(initNet, test, 0); acc < 0.15 {
		t.Errorf("sharded aggregate accuracy %g suspiciously low", acc)
	}
}

func TestTrainEpochAndEvalHardLoss(t *testing.T) {
	train, _ := tinyMNIST(t)
	cfg := testConfig(10)
	net, err := buildModel(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, train.Len())
	for i := range idx {
		idx[i] = i
	}
	before := EvalHardLoss(net, train, idx, cfg.Loss.Hard, cfg.BatchSize)
	opt, err := optim.NewSGD(cfg.Opt)
	if err != nil {
		t.Fatal(err)
	}
	gl := cfg.Loss
	gl.MuD = 0
	rng := rand.New(rand.NewSource(7))
	for e := 0; e < 3; e++ {
		if _, err := TrainEpoch(context.Background(), net, nil, train, idx, nil, gl, opt, cfg.BatchSize, rng, nil); err != nil {
			t.Fatal(err)
		}
	}
	after := EvalHardLoss(net, train, idx, cfg.Loss.Hard, cfg.BatchSize)
	if after >= before {
		t.Errorf("training did not reduce loss: %g → %g", before, after)
	}
	if got := EvalHardLoss(net, train, nil, cfg.Loss.Hard, cfg.BatchSize); got != 0 {
		t.Errorf("EvalHardLoss on no rows = %g, want 0", got)
	}
}

// TestClientAsFedTrainer exercises Client through the generic round engine
// over the in-process transport, confirming the interfaces compose.
func TestClientAsFedTrainer(t *testing.T) {
	train, _ := tinyMNIST(t)
	parts, err := data.PartitionIID(train, 2, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(10)
	var trainers []fed.LocalTrainer
	for i, p := range parts {
		c, err := NewClient(i, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		trainers = append(trainers, c)
	}
	initNet, err := buildModel(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := fed.NewEngine(fed.EngineConfig{}, initNet.StateVector(), fed.NewLocalTransport(trainers))
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if engine.Round() != 2 {
		t.Errorf("engine completed %d rounds, want 2", engine.Round())
	}
}

// randSource is a tiny helper for tests that need a seeded RNG.
func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
