package baselines_test

import (
	"context"
	"math/rand"
	"testing"

	"goldfish/internal/baselines"
	"goldfish/internal/core"
	"goldfish/internal/data"
	"goldfish/internal/loss"
	"goldfish/internal/metrics"
	"goldfish/internal/model"
	"goldfish/internal/optim"
	"goldfish/internal/unlearn"
)

func testConfig() core.Config {
	return core.Config{
		Model:       model.Config{Arch: model.ArchMLP, InC: 1, InH: 12, InW: 12, Classes: 10, Seed: 1},
		Loss:        loss.NewGoldfish(),
		Opt:         optim.SGDConfig{LR: 0.1, Momentum: 0.9, ClipNorm: 5},
		LocalEpochs: 3,
		BatchSize:   32,
		Seed:        1,
	}
}

// poisonedSetup builds partitions with a backdoored client 0 and returns
// everything the baseline comparisons need.
func poisonedSetup(t *testing.T) (parts []*data.Dataset, poisoned []int,
	test, triggered *data.Dataset, bd data.BackdoorConfig) {
	t.Helper()
	spec, err := data.SpecMNIST(data.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	train, testSet, err := data.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	parts, err = data.PartitionIID(train, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	bd = data.DefaultBackdoor()
	rows, err := bd.Poison(parts[0], 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	trig, err := bd.TriggerCopy(testSet)
	if err != nil {
		t.Fatal(err)
	}
	return parts, rows, testSet, trig, bd
}

// federation builds an unlearning federation over parts running the
// registered strategy name — the one path every baseline runs on.
func federation(t *testing.T, name string, cfg core.Config, parts []*data.Dataset) *unlearn.Federation {
	t.Helper()
	strategy, err := unlearn.New(name)
	if err != nil {
		t.Fatal(err)
	}
	f, err := unlearn.NewFederation(unlearn.Config{Client: cfg, Unlearner: strategy}, parts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// unlearned runs the named strategy with client 0's poisoned rows deleted
// before the first round, for the given rounds, and returns the final
// global model.
func unlearned(t *testing.T, name string, cfg core.Config, parts []*data.Dataset, poisoned []int, rounds int) []float64 {
	t.Helper()
	f := federation(t, name, cfg, parts)
	if err := f.RequestDeletion(0, poisoned); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(context.Background(), rounds, nil); err != nil {
		t.Fatal(err)
	}
	return f.Global()
}

func evalState(t *testing.T, cfg core.Config, state []float64, test *data.Dataset) float64 {
	t.Helper()
	net, err := model.Build(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetStateVector(state); err != nil {
		t.Fatal(err)
	}
	return metrics.Accuracy(net, test, 0)
}

func evalASR(t *testing.T, cfg core.Config, state []float64, triggered *data.Dataset, target int) float64 {
	t.Helper()
	net, err := model.Build(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetStateVector(state); err != nil {
		t.Fatal(err)
	}
	return metrics.AttackSuccessRate(net, triggered, target, 0)
}

func TestTrainerConfigValidation(t *testing.T) {
	parts, _, _, _, _ := poisonedSetup(t)
	for _, tc := range []struct {
		name   string
		modify func(*core.Config)
	}{
		{"0 epochs", func(c *core.Config) { c.LocalEpochs = 0 }},
		{"0 batch", func(c *core.Config) { c.BatchSize = 0 }},
		{"invalid optimizer", func(c *core.Config) { c.Opt.LR = 0 }},
	} {
		cfg := testConfig()
		tc.modify(&cfg)
		if _, err := baselines.NewPlainTrainer(0, cfg, parts[0], false); err == nil {
			t.Errorf("B1/B2 trainer: %s accepted", tc.name)
		}
		if _, err := baselines.NewIncompetentTrainer(0, cfg, parts[0]); err == nil {
			t.Errorf("B3 trainer: %s accepted", tc.name)
		}
	}
	if _, err := baselines.NewPlainTrainer(0, testConfig(), parts[0], true); err != nil {
		t.Errorf("valid configuration rejected: %v", err)
	}
}

func TestOriginLearnsBackdoor(t *testing.T) {
	parts, _, test, triggered, bd := poisonedSetup(t)
	cfg := testConfig()
	// Origin = B1 with no deletion: trains on the poisoned data.
	f := federation(t, "retrain", cfg, parts)
	if err := f.Run(context.Background(), 8, nil); err != nil {
		t.Fatal(err)
	}
	acc := evalState(t, cfg, f.Global(), test)
	asr := evalASR(t, cfg, f.Global(), triggered, bd.TargetLabel)
	if acc < 0.35 {
		t.Errorf("origin accuracy %g too low", acc)
	}
	if asr < 0.4 {
		t.Errorf("origin ASR %g too low — backdoor should take hold", asr)
	}
}

func TestB1RemovesBackdoor(t *testing.T) {
	parts, poisoned, test, triggered, bd := poisonedSetup(t)
	cfg := testConfig()
	f := federation(t, "retrain", cfg, parts)
	if err := f.RequestDeletion(0, poisoned); err != nil {
		t.Fatal(err)
	}
	var rounds int
	if err := f.Run(context.Background(), 8, func(unlearn.RoundStats) { rounds++ }); err != nil {
		t.Fatal(err)
	}
	if rounds != 8 {
		t.Errorf("round hook fired %d times, want 8", rounds)
	}
	acc := evalState(t, cfg, f.Global(), test)
	asr := evalASR(t, cfg, f.Global(), triggered, bd.TargetLabel)
	if acc < 0.35 {
		t.Errorf("B1 accuracy %g too low", acc)
	}
	if asr > 0.25 {
		t.Errorf("B1 ASR %g too high after retraining without poison", asr)
	}
}

func TestB2ConvergesAndRemovesBackdoor(t *testing.T) {
	parts, poisoned, test, triggered, bd := poisonedSetup(t)
	cfg := testConfig()
	cfg.Opt.LR = 0.01 // preconditioned steps are larger; lower LR
	state := unlearned(t, "fisher", cfg, parts, poisoned, 8)
	acc := evalState(t, cfg, state, test)
	asr := evalASR(t, cfg, state, triggered, bd.TargetLabel)
	if acc < 0.35 {
		t.Errorf("B2 accuracy %g too low", acc)
	}
	if asr > 0.25 {
		t.Errorf("B2 ASR %g too high", asr)
	}
}

func TestB2FasterThanB1EarlyOn(t *testing.T) {
	parts, poisoned, test, _, _ := poisonedSetup(t)
	cfg := testConfig()
	cfg.Opt.LR = 0.01
	cfg.LocalEpochs = 1
	b2 := unlearned(t, "fisher", cfg, parts, poisoned, 2)
	b1 := unlearned(t, "retrain", cfg, parts, poisoned, 2)
	accB2 := evalState(t, cfg, b2, test)
	accB1 := evalState(t, cfg, b1, test)
	if accB2 <= accB1 {
		t.Errorf("FIM preconditioning should speed early recovery: B2 %g vs B1 %g", accB2, accB1)
	}
}

func TestB3UnlearnsFromContaminatedModel(t *testing.T) {
	parts, poisoned, test, triggered, bd := poisonedSetup(t)
	cfg := testConfig()
	// Build the contaminated origin first.
	origin := federation(t, "retrain", cfg, parts)
	if err := origin.Run(context.Background(), 8, nil); err != nil {
		t.Fatal(err)
	}
	asrOrigin := evalASR(t, cfg, origin.Global(), triggered, bd.TargetLabel)
	if asrOrigin < 0.4 {
		t.Fatalf("origin ASR %g too low for a meaningful B3 test", asrOrigin)
	}
	// B3 starts from the contaminated model, which becomes the competent
	// teacher of the deleting client.
	f := federation(t, "incompetent-teacher", cfg, parts)
	if err := f.SetGlobal(origin.Global()); err != nil {
		t.Fatal(err)
	}
	if err := f.RequestDeletion(0, poisoned); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(context.Background(), 8, nil); err != nil {
		t.Fatal(err)
	}
	acc := evalState(t, cfg, f.Global(), test)
	asr := evalASR(t, cfg, f.Global(), triggered, bd.TargetLabel)
	// B3 is the weakest unlearner in the paper's tables as well (its ASR
	// stays above B1's and ours); require a clear drop, not elimination.
	if asr > asrOrigin*0.6 {
		t.Errorf("B3 ASR %g did not drop enough from origin %g", asr, asrOrigin)
	}
	if acc < 0.3 {
		t.Errorf("B3 accuracy %g too low", acc)
	}
}

func TestBaselineErrors(t *testing.T) {
	parts, poisoned, _, _, _ := poisonedSetup(t)
	cfg := testConfig()
	if _, err := baselines.NewPlainTrainer(0, cfg, parts[0].Subset(nil), false); err == nil {
		t.Error("client without data accepted")
	}
	// Removing everything from a client must fail.
	all := make([]int, parts[1].Len())
	for i := range all {
		all[i] = i
	}
	plain, err := baselines.NewPlainTrainer(1, cfg, parts[1], false)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Forget(all); err == nil {
		t.Error("client with no remaining data accepted")
	}
	b3, err := baselines.NewIncompetentTrainer(0, cfg, parts[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := b3.Forget(poisoned, nil); err == nil {
		t.Error("B3 without contaminated model accepted")
	}
	noTemp := testConfig()
	noTemp.Loss.MuD, noTemp.Loss.Temp = 0, 0 // passes the loss check
	if _, err := baselines.NewIncompetentTrainer(0, noTemp, parts[0]); err == nil {
		t.Error("B3 with zero temperature accepted")
	}
}

func TestBaselineCancellation(t *testing.T) {
	parts, poisoned, _, _, _ := poisonedSetup(t)
	f := federation(t, "retrain", testConfig(), parts)
	if err := f.RequestDeletion(0, poisoned); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.Run(ctx, 5, nil); err == nil {
		t.Error("cancelled run should fail")
	}
}
