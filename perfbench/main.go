// Command perfbench is the repository's benchmark: one workload per run,
// every end-to-end metric by name and unit (or, traced, every per-layer
// metric), correctness checked, and the contract's JSON result as the
// last line of standard output.
//
//	perfbench --workload hitrate-sweep --seed 1 --seconds 10 --trace 0
//
// Workloads: hitrate-sweep, ipc-sweep, integrity, service. Inputs are
// generated from --seed alone. Load comes from this one process with at
// most nproc threads of work (sweeps) or connections (service).
// METRICS.md maps each metric to its layer and workload.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// spanDir is where a traced run writes its spans, relative to the
// repository root the benchmark runs from.
const spanDir = ".bench_build/spans"

// nproc is the load's width: sweep workers and service connections.
func nproc() int { return runtime.NumCPU() }

func workloadNames() []string {
	names := []string{"service"}
	for n := range simWorkloads() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: hitrate-sweep, ipc-sweep, integrity or service")
		seed    = fs.Uint64("seed", 1, "seed every generated input derives from")
		seconds = fs.Int("seconds", 10, "measurement window in seconds")
		trace   = fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	traced := *trace == 1
	window := time.Duration(*seconds) * time.Second
	ctx := context.Background()
	o := newOutcome()
	var tr *tracer
	var err error
	if w, ok := simWorkloads()[*name]; ok {
		tr, err = runSimWorkload(ctx, w, *seed, window, traced, stdout, o)
	} else if *name == "service" {
		tr, err = runService(ctx, *seed, window, traced, stdout, o)
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if traced {
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		n, err := tr.write(path)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		o.set("trace.spans", float64(n))
		printSelfTime(stdout, tr)
		fmt.Fprintf(stdout, "wrote %d spans to %s\n", n, path)
	}
	if err := emit(stdout, o, traced); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// printSelfTime lists each span name's self time, largest first.
func printSelfTime(w io.Writer, tr *tracer) {
	st := tr.selfTime()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return st[names[i]] > st[names[j]] })
	for _, n := range names {
		fmt.Fprintf(w, "self time %-32s %.6f s\n", n, st[n])
	}
}
