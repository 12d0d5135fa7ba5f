// Command goldfish-server runs a federation server over TCP. Clients
// (cmd/goldfish-client) connect, receive the global model each round, train
// locally and upload updates; the server aggregates with FedAvg or the
// paper's adaptive-weight scheme and finally prints the global model's test
// accuracy.
//
// Usage:
//
//	goldfish-server -addr :7070 -clients 3 -rounds 8 -dataset mnist -scale tiny
//	goldfish-server -addr :7070 -clients 3 -agg adaptive
//	goldfish-server -addr :7070 -clients 3 -obs-addr 127.0.0.1:9090
//	goldfish-server -serve -obs-addr 127.0.0.1:9090 -dataset mnist -scale tiny
//
// The dataset/scale/seed flags must match the clients' so both sides build
// identical architectures and evaluation data.
//
// With -serve the server instead runs as a long-lived unlearning service:
// an in-process federation (no TCP clients) trains the preset while
// deletion requests posted to the -obs-addr mux fold into the model in
// coalesced batches at round boundaries:
//
//	POST /unlearn               {"kind":"sample","client":0,"rows":[3,5]}
//	POST /unlearn               {"kind":"class","class":7}
//	POST /unlearn               {"kind":"client","client":2}
//	GET  /unlearn/stats         queue depth and forgetting-latency quantiles
//	GET  /unlearn/requests/{id} one ticket's lifecycle state
//
// A full queue answers 429 with a Retry-After estimated from the round
// cadence. -strategy, -queue-cap and -recovery-rounds tune the service.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"goldfish"
	"goldfish/internal/fed"
	"goldfish/internal/metrics"
	"goldfish/internal/obs"
	"goldfish/internal/version"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr    = flag.String("addr", ":7070", "listen address")
		clients = flag.Int("clients", 2, "number of clients to wait for")
		rounds  = flag.Int("rounds", 0, "global rounds (0 = preset default)")
		dataset = flag.String("dataset", "mnist", "dataset preset: mnist|fmnist|cifar10|cifar100")
		scale   = flag.String("scale", "tiny", "experiment scale: tiny|small|medium|paper")
		seed    = flag.Int64("seed", 1, "random seed (must match clients)")
		agg     = flag.String("agg", "fedavg", "aggregator: fedavg|adaptive")
		timeout = flag.Duration("round-timeout", time.Minute,
			"per-round straggler bound; slower clients are dropped for the round (0 = wait forever)")
		obsAddr = flag.String("obs-addr", "",
			"serve /healthz, /debug/vars and /debug/pprof on this address (observability HTTP is off when empty)")
		serveMode = flag.Bool("serve", false,
			"run as a long-lived unlearning service: in-process federation with the /unlearn deletion API on -obs-addr")
		strategy = flag.String("strategy", "goldfish",
			"unlearning strategy for -serve: goldfish|retrain|fisher|incompetent-teacher")
		queueCap = flag.Int("queue-cap", 0, "deletion-queue capacity for -serve (0 = default)")
		recovery = flag.Int("recovery-rounds", 0, "rounds after application until a deletion counts as forgotten (0 = default)")
		ver      = flag.Bool("version", false, "print the version and exit")
	)
	flag.Parse()

	if *ver {
		version.Fprint(os.Stdout, "goldfish-server")
		return 0
	}

	if *serveMode {
		return runService(*dataset, *scale, *strategy, *obsAddr, *clients, *rounds, *queueCap, *recovery, *seed)
	}

	p, err := goldfish.NewPreset(*dataset, goldfish.Scale(*scale), *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-server: %v\n", err)
		return 2
	}
	if *rounds <= 0 {
		*rounds = p.Rounds
	}
	_, test, err := p.Generate()
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-server: %v\n", err)
		return 1
	}
	initNet, err := goldfish.BuildModel(p.Model)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-server: %v\n", err)
		return 1
	}

	var stateErrOnce sync.Once
	cfg := fed.ServerConfig{
		Rounds:       *rounds,
		NumClients:   *clients,
		RoundTimeout: *timeout,
		Initial:      initNet.StateVector(),
		OnRound: func(ri fed.RoundInfo) {
			if err := initNet.SetStateVector(ri.Global); err != nil {
				// A length mismatch here is structural and would repeat
				// every round; report it once instead of staying silent.
				stateErrOnce.Do(func() {
					fmt.Fprintf(os.Stderr, "goldfish-server: round %d: loading global state for evaluation: %v\n",
						ri.Round, err)
				})
				return
			}
			acc := metrics.Accuracy(initNet, test, 0)
			fmt.Printf("round %d: %d updates, global accuracy %.2f%%\n",
				ri.Round, len(ri.Updates), acc*100)
		},
	}
	switch *agg {
	case "fedavg":
		cfg.Aggregator = fed.FedAvg{}
	case "adaptive":
		cfg.Aggregator = fed.AdaptiveWeight{}
		eval, err := goldfish.BuildModel(p.Model)
		if err != nil {
			fmt.Fprintf(os.Stderr, "goldfish-server: %v\n", err)
			return 1
		}
		// Pooled replicas: the engine scores a round's updates concurrently.
		cfg.Scorer = fed.ScorerFunc(metrics.NewMSEScorer(eval, test, 0))
	default:
		fmt.Fprintf(os.Stderr, "goldfish-server: unknown aggregator %q\n", *agg)
		return 2
	}

	srv, err := fed.NewServer(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-server: %v\n", err)
		return 2
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-server: %v\n", err)
		return 1
	}
	fmt.Printf("goldfish-server: listening on %s, waiting for %d clients (%s/%s, %d rounds, %s)\n",
		ln.Addr(), *clients, *dataset, *scale, *rounds, *agg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	observer := goldfish.NewObserver(nil)
	ctx = goldfish.WithObservability(ctx, observer)
	if *obsAddr != "" {
		obsSrv, obsLn, err := startObsServer(*obsAddr, observer)
		if err != nil {
			fmt.Fprintf(os.Stderr, "goldfish-server: %v\n", err)
			return 1
		}
		fmt.Printf("goldfish-server: observability on http://%s (/healthz /debug/vars /debug/pprof)\n", obsLn.Addr())
		defer func() {
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := obsSrv.Shutdown(shutCtx); err != nil {
				fmt.Fprintf(os.Stderr, "goldfish-server: obs shutdown: %v\n", err)
			}
		}()
	}

	final, err := srv.Serve(ctx, ln)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-server: %v\n", err)
		return 1
	}
	if err := initNet.SetStateVector(final); err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-server: %v\n", err)
		return 1
	}
	fmt.Printf("final global accuracy: %.2f%%\n", goldfish.Accuracy(initNet, test)*100)
	return 0
}

// runService is the -serve mode: an in-process federation of the preset
// with the deletion-request service attached, its /unlearn API co-hosted on
// the observability mux. Runs until the round budget or an interrupt.
func runService(dataset, scale, strategy, obsAddr string, clients, rounds, queueCap, recovery int, seed int64) int {
	if obsAddr == "" {
		fmt.Fprintln(os.Stderr, "goldfish-server: -serve requires -obs-addr (the /unlearn API is served there)")
		return 2
	}
	var eng *goldfish.Engine
	eng, err := goldfish.New(
		goldfish.WithDataset(dataset, goldfish.Scale(scale)),
		goldfish.WithSeed(seed),
		goldfish.WithClients(clients),
		goldfish.WithUnlearner(strategy),
		goldfish.WithRoundHook(func(rs goldfish.RoundStats) {
			line := fmt.Sprintf("round %d: %d updates", rs.Round, len(rs.Updates))
			if rs.UnlearningRound {
				line += " (unlearning)"
			}
			if acc, aerr := eng.TestAccuracy(eng.TestData()); aerr == nil {
				line += fmt.Sprintf(", global accuracy %.2f%%", acc*100)
			}
			fmt.Println(line)
		}),
	)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-server: %v\n", err)
		return 2
	}
	if rounds <= 0 {
		rounds = eng.DefaultRounds()
	}

	observer := goldfish.NewObserver(nil)
	svc, err := eng.NewDeletionService(goldfish.DeletionServiceConfig{
		QueueCap:       queueCap,
		RecoveryRounds: recovery,
		Observer:       observer,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-server: %v\n", err)
		return 2
	}
	obsSrv, obsLn, err := startObsServer(obsAddr, observer, svc.Mount)
	if err != nil {
		fmt.Fprintf(os.Stderr, "goldfish-server: %v\n", err)
		return 1
	}
	defer func() {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := obsSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(os.Stderr, "goldfish-server: obs shutdown: %v\n", err)
		}
	}()
	fmt.Printf("goldfish-server: unlearning service on http://%s (/unlearn, /unlearn/stats), %s/%s, strategy %s, %d clients, %d rounds\n",
		obsLn.Addr(), dataset, scale, strategy, eng.NumClients(), rounds)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runErr := eng.Run(goldfish.WithObservability(ctx, observer), rounds)
	svc.Settle()

	stats := svc.Stats()
	fmt.Printf("service: %d accepted, %d rejected, %d coalesced, %d applied, %d recovered, %d failed; rounds-to-forget p50 %.1f p99 %.1f\n",
		stats.Accepted, stats.Rejected, stats.Coalesced, stats.Applied, stats.Recovered, stats.Failed,
		stats.RoundsToForget.P50, stats.RoundsToForget.P99)
	if runErr != nil {
		if errors.Is(runErr, context.Canceled) {
			fmt.Println("interrupted; shutting down")
			return 0
		}
		fmt.Fprintf(os.Stderr, "goldfish-server: %v\n", runErr)
		return 1
	}
	if acc, err := eng.TestAccuracy(eng.TestData()); err == nil {
		fmt.Printf("final global accuracy: %.2f%%\n", acc*100)
	}
	return 0
}

// obsReadHeaderTimeout bounds how long a connection to the obs endpoint may
// take to send its request headers, so idle or trickling clients cannot hold
// connections open.
const obsReadHeaderTimeout = 10 * time.Second

// startObsServer exposes the observer's metrics (plus health and pprof
// endpoints) over HTTP on addr and serves in the background, with any extra
// mounts co-hosted on the same mux (-serve adds the /unlearn API). The
// returned server is shut down gracefully by the caller; the listener
// reports the bound address (useful with ":0").
func startObsServer(addr string, o *goldfish.Observer, mounts ...func(*http.ServeMux)) (*http.Server, net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("obs endpoint: %w", err)
	}
	srv := &http.Server{
		Handler:           obs.Handler("goldfish-server "+version.Version, o.Registry(), mounts...),
		ReadHeaderTimeout: obsReadHeaderTimeout,
	}
	//goldfish:goleakok — joined by the caller's deferred srv.Shutdown: Serve returns ErrServerClosed on graceful shutdown and the goroutine exits
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "goldfish-server: obs endpoint: %v\n", err)
		}
	}()
	return srv, ln, nil
}
