// Command gfbench is the benchmark of the goldfish federated-unlearning
// engine. It runs one workload through the public goldfish API, checks the
// program's outputs, and prints a readable report followed, as its last
// line, by one JSON object:
//
//	{"correct": true, "attempted": N, "failed": M, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// observer attached; with -trace 1 they are the per-layer ones, taken from
// a traced pass and a client-step probe. A failed output check exits with
// status 1. See README.md for the workloads and the metric definitions.
//
// Run it from the repository root:
//
//	bash gfbench/run.sh --workload backdoor-cnn --seed 1 --seconds 40 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloads maps each workload name to its driver.
var workloads = map[string]func(context.Context, *bench) error{
	"backdoor-cnn":        runBackdoor,
	"class-forget-resnet": runClassForget,
	"deletion-stream":     runStream,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 40, "nominal run length in seconds; each workload runs a fixed number of episodes, sized to take about 40 s on 2 vCPUs, so the same seed always measures the same work")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced pass")
	traceOut := fs.String("trace-out", ".bench_build/trace.jsonl", "with -trace 1, the file the traced pass's spans are written to at the end (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "gfbench: need -workload one of %v, -seconds > 0 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	b := newBench(*workload, *seed, *trace == 1)
	if err := drive(context.Background(), b); err != nil {
		fmt.Fprintf(stderr, "gfbench: %s: %v\n", *workload, err)
		return 1
	}
	b.finish()
	if b.trace != nil && *traceOut != "" {
		if err := b.trace.writeFile(*traceOut); err != nil {
			fmt.Fprintf(stderr, "gfbench: %v\n", err)
			return 1
		}
	}
	b.writeReport(stdout)
	line, err := json.Marshal(b.result())
	if err != nil {
		fmt.Fprintf(stderr, "gfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !b.correct() {
		fmt.Fprintln(stderr, "gfbench: output check failed")
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
