package main

import (
	"context"
	"math/rand"
	"time"

	"goldfish"
)

// class-forget-resnet: one whole class is deleted from a heterogeneous
// federation on the CIFAR-100 preset (ResNet: BatchNorm, residual blocks,
// global average pooling), aggregated with the paper's adaptive weights
// (Eqs. 12–13), which score every update on the server's test set.
const (
	// cfSkew is PartitionHeterogeneous's label skew (smaller is more
	// heterogeneous); it also makes the client sizes uneven.
	cfSkew = 0.5
	// cfShapeSeed fixes the partitioner's draws (client weights and class
	// preferences), so every run has the same federation shape: the
	// slowest client, which sets the round time, is the same size on
	// every seed. The workload seed draws the data, the model
	// initialisation and the class to delete.
	cfShapeSeed = 1
	// cfFloorAcc is the pre-deletion accuracy on the class to delete that
	// the model must reach for the forgetting to be meaningful.
	cfFloorAcc = 0.5
	// cfMinPre, cfLearnedAcc and cfTrainedAcc end pre-training early:
	// after cfMinPre rounds, once the class to delete is learned to
	// cfLearnedAcc and the other classes to cfTrainedAcc. The preset's
	// round budget caps it.
	cfMinPre     = 5
	cfLearnedAcc = 0.8
	cfTrainedAcc = 0.9
	// cfEpisodes is the episodes per run.
	cfEpisodes = 1
)

// newClassForgetEnv sets up one class-forget-resnet episode from sub, the
// episode's seed.
func newClassForgetEnv(sub int64, r *rounds) (*forgetEnv, time.Duration, time.Duration, error) {
	p, err := goldfish.NewPreset("cifar100", goldfish.ScaleSmall, sub)
	if err != nil {
		return nil, 0, 0, err
	}
	t := time.Now()
	train, test, err := p.Generate()
	gen := time.Since(t)
	if err != nil {
		return nil, 0, 0, err
	}
	parts, err := goldfish.PartitionHeterogeneous(train, 5, cfSkew, rand.New(rand.NewSource(cfShapeSeed)))
	if err != nil {
		return nil, 0, 0, err
	}
	class := rand.New(rand.NewSource(sub)).Intn(test.Classes)
	var keep, gone []int
	for i, y := range test.Y {
		if y == class {
			gone = append(gone, i)
		} else {
			keep = append(keep, i)
		}
	}
	retained, deleted := test.Subset(keep), test.Subset(gone)
	cfg := p.ClientConfig()
	r.localEpochs = cfg.LocalEpochs
	t = time.Now()
	e, err := goldfish.New(
		goldfish.WithPreset(p),
		goldfish.WithPartitions(parts),
		goldfish.WithAggregator(goldfish.AdaptiveWeight{}),
		goldfish.WithServerTest(test),
		goldfish.WithUnlearner("goldfish"),
		goldfish.WithRoundHook(r.hook),
	)
	build := time.Since(t)
	if err != nil {
		return nil, 0, 0, err
	}
	// The probe's client is the one holding most of the deleted class.
	big := 0
	for i, pt := range parts {
		if len(pt.RowsOfClass(class)) > len(parts[big].RowsOfClass(class)) {
			big = i
		}
	}
	env := &forgetEnv{
		e:      e,
		r:      r,
		minPre: min(cfMinPre, p.Rounds),
		maxPre: p.Rounds,
		ready: func(acc, classAcc float64) bool {
			return classAcc >= cfLearnedAcc && acc >= cfTrainedAcc
		},
		eval: func() (float64, float64, error) {
			net, err := e.GlobalNet()
			if err != nil {
				return 0, 0, err
			}
			return goldfish.Accuracy(net, retained), goldfish.Accuracy(net, deleted), nil
		},
		remove: func() error {
			_, err := e.RequestClassDeletion(class)
			return err
		},
		probe: probeInput{cfg: cfg, data: parts[big], forget: parts[big].Subset(parts[big].RowsOfClass(class))},
	}
	env.checkRemoved = func(b *bench) {
		left := 0
		for i := 0; i < e.NumClients(); i++ {
			left += len(e.RemainingRowsOfClass(i, class))
		}
		b.expect("deleted class absent from RemainingRowsOfClass", left == 0, "class %d, %d rows left", class, left)
	}
	return env, gen, build, nil
}

func runClassForget(ctx context.Context, b *bench) error {
	eps, err := runForgetWorkload(ctx, b, newClassForgetEnv, cfEpisodes, 3)
	if err != nil {
		return err
	}
	for _, ep := range eps {
		b.expect("class learned before deletion", ep.preHit >= cfFloorAcc,
			"pre-deletion accuracy on the class %.3f, floor %.2f", ep.preHit, cfFloorAcc)
	}
	if !b.traced {
		b.reportEpisodes(eps, "forget_class_acc")
	}
	return nil
}
