package main

import (
	"context"
	"math/rand"
	"time"

	"goldfish"
)

// backdoor-cnn: the paper's Table III/V protocol on the CIFAR-10 preset
// (LeNet-5-mod). Client 0 of five IID clients is backdoored; after
// pre-training, all its poisoned rows are deleted at once.
const (
	// bdPoisonFrac is the share of client 0's rows that are poisoned.
	bdPoisonFrac = 0.8
	// bdEarlyDelta is δ of the early-termination rule (Eq. 7).
	bdEarlyDelta = 0.05
	// bdEmbedASR ends pre-training early, once the backdoor holds.
	bdEmbedASR = 0.8
	// bdFloorASR is the pre-deletion ASR the backdoor must reach for the
	// forgetting to be meaningful; below it the run fails its check.
	bdFloorASR = 0.5
	// bdEpisodes is the episodes per run.
	bdEpisodes = 4
)

// newBackdoorEnv sets up one backdoor-cnn episode from sub, the episode's
// seed. It returns the data-generation and engine-construction times.
func newBackdoorEnv(sub int64, r *rounds) (*forgetEnv, time.Duration, time.Duration, error) {
	p, err := goldfish.NewPreset("cifar10", goldfish.ScaleSmall, sub)
	if err != nil {
		return nil, 0, 0, err
	}
	t := time.Now()
	train, test, err := p.Generate()
	gen := time.Since(t)
	if err != nil {
		return nil, 0, 0, err
	}
	rng := rand.New(rand.NewSource(sub))
	parts, err := goldfish.PartitionIID(train, 5, rng)
	if err != nil {
		return nil, 0, 0, err
	}
	bd := goldfish.DefaultBackdoor()
	poisoned, err := bd.Poison(parts[0], bdPoisonFrac, rng)
	if err != nil {
		return nil, 0, 0, err
	}
	triggered, err := bd.TriggerCopy(test)
	if err != nil {
		return nil, 0, 0, err
	}
	cfg := p.ClientConfig()
	cfg.EarlyDelta = bdEarlyDelta
	cfg.AdaptiveTemp = true
	r.localEpochs = cfg.LocalEpochs
	t = time.Now()
	e, err := goldfish.New(
		goldfish.WithPreset(p),
		goldfish.WithPartitions(parts),
		goldfish.WithClientConfig(cfg),
		goldfish.WithAggregator(goldfish.FedAvg{}),
		goldfish.WithUnlearner("goldfish"),
		goldfish.WithRoundHook(r.hook),
	)
	build := time.Since(t)
	if err != nil {
		return nil, 0, 0, err
	}
	env := &forgetEnv{
		e:      e,
		r:      r,
		minPre: p.Rounds,
		maxPre: 3 * p.Rounds,
		ready:  func(_, asr float64) bool { return asr >= bdEmbedASR },
		eval: func() (float64, float64, error) {
			net, err := e.GlobalNet()
			if err != nil {
				return 0, 0, err
			}
			return goldfish.Accuracy(net, test), goldfish.AttackSuccessRate(net, triggered, bd.TargetLabel), nil
		},
		remove: func() error { return e.RequestSampleDeletion(0, poisoned) },
	}
	env.probe = probeInput{cfg: cfg, data: parts[1], forget: parts[0].Subset(poisoned)}
	env.checkRemoved = func(b *bench) {
		left := map[int]bool{}
		for _, row := range e.RemainingRows(0) {
			left[row] = true
		}
		absent := true
		for _, row := range poisoned {
			absent = absent && !left[row]
		}
		b.expect("deleted rows absent from RemainingRows", absent, "%d poisoned rows of client 0", len(poisoned))
	}
	return env, gen, build, nil
}

func runBackdoor(ctx context.Context, b *bench) error {
	eps, err := runForgetWorkload(ctx, b, newBackdoorEnv, bdEpisodes, 4)
	if err != nil {
		return err
	}
	for _, ep := range eps {
		b.expect("backdoor embedded before deletion", ep.preHit >= bdFloorASR,
			"pre-deletion ASR %.3f, floor %.2f", ep.preHit, bdFloorASR)
	}
	if !b.traced {
		b.reportEpisodes(eps, "asr")
	}
	return nil
}
