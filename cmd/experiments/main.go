// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments                         # every experiment, default scale
//	experiments -exp fig7,fig12         # a subset
//	experiments -instr 2000000          # longer windows, tighter numbers
//	experiments -bench mcf,gzip,swim    # a benchmark subset
//	experiments -j 8                    # eight simulations in flight
//	experiments -metrics all.json       # raw series as a metrics tree
//
// Each experiment's benchmark × scheme grid runs across -j workers
// (default: one per CPU); results are assembled in input order, so the
// output is byte-identical to -j 1 for the same seed. Per-simulation
// progress lines go to stderr (suppress with -progress=false).
//
// Ctrl-C cancels cleanly: in-flight simulations stop at their next
// instruction checkpoint and the error reports which grid cells had
// already finished. -simtimeout bounds each individual simulation.
//
// Output is the same row/series layout the paper's figures plot, plus a
// note recording the shape the paper reports.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"time"

	"ctrpred"
)

func main() {
	var (
		exps     = flag.String("exp", "all", "comma-separated experiment ids (table1, fig4, fig7..fig16, ablation, ctxswitch, integrity, hybrid, seqsweep, valuepred, attack, engines, tenants, capacity) or 'all'")
		engine   = flag.String("engine", "aes", "cipher engine model every simulation runs under: aes[:lat=N,issue=N]|sealer[:banks=N,lat=N]|bipbip[:lat=N] (ignored by the 'engines' experiment, which sweeps them)")
		instr    = flag.Uint64("instr", 0, "per-run instruction budget (0 = default)")
		foot     = flag.String("footprint", "", "workload footprint with optional K/M suffix, e.g. 8M (empty = default)")
		bench    = flag.String("bench", "", "comma-separated benchmark subset (default: all 14)")
		seed     = flag.Uint64("seed", 1, "random seed")
		jobs     = flag.Int("j", 0, "concurrent simulations per sweep (0 = one per CPU)")
		timeout  = flag.Duration("simtimeout", 0, "per-simulation deadline (0 = none), e.g. 30s")
		metrics  = flag.String("metrics", "", "write every experiment's metrics snapshot to this path (JSON; a .csv suffix selects CSV; '-' = stdout)")
		arrival  = flag.String("arrival", "poisson", "tenancy experiments' arrival process: poisson|bursty")
		maxTen   = flag.Int("maxtenants", 0, "capacity experiment's search ceiling (0 = default 8)")
		sloSlow  = flag.Float64("slo-slowdown", 0, "capacity SLO: max end-to-end slowdown vs solo (0 = default 8)")
		sloP99   = flag.Float64("slo-p99", 0, "capacity SLO: max p99 fetch latency in cycles (0 = unconstrained)")
		pprof    = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		progress = flag.Bool("progress", true, "print per-simulation progress/timing lines to stderr")
	)
	flag.Parse()

	if *pprof != "" {
		go func() {
			if err := http.ListenAndServe(*pprof, nil); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: pprof:", err)
			}
		}()
	}

	opt := ctrpred.DefaultOptions()
	opt.Seed = *seed
	opt.Workers = *jobs
	opt.SimTimeout = *timeout
	eng, err := ctrpred.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}
	opt.Engine = eng
	kind, err := ctrpred.ParseArrival(*arrival)
	if err != nil {
		fatal(err)
	}
	opt.Arrival = kind
	opt.MaxTenants = *maxTen
	opt.SLOMaxSlowdown = *sloSlow
	opt.SLOP99Fetch = *sloP99
	if *instr != 0 {
		opt.Scale.Instructions = *instr
	}
	if *foot != "" {
		bytes, err := ctrpred.ParseSize(*foot)
		if err != nil {
			fatal(err)
		}
		opt.Scale.Footprint = bytes
	}
	if *bench != "" {
		benchmarks, err := splitValidated(*bench, ctrpred.Benchmarks(), "benchmark")
		if err != nil {
			fatal(err)
		}
		opt.Benchmarks = benchmarks
	}
	if *progress {
		opt.Progress = func(u ctrpred.RunUpdate) {
			status := "ok"
			if u.Err != nil {
				status = "FAIL: " + u.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s (%.2fs) %s\n",
				u.Done, u.Total, u.Label, u.Elapsed.Seconds(), status)
		}
	}

	ids := ctrpred.ExperimentIDs()
	if *exps != "all" {
		var err error
		ids, err = splitValidated(*exps, ctrpred.ExperimentIDs(), "experiment")
		if err != nil {
			fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	root := ctrpred.Snapshot{Name: "experiments"}
	for _, id := range ids {
		start := time.Now()
		res, err := ctrpred.RunExperimentContext(ctx, id, opt)
		if err != nil {
			var pe *ctrpred.PartialError
			if errors.As(err, &pe) {
				fmt.Fprintf(os.Stderr, "experiments: %s interrupted: %v\n", id, pe.Cause)
				fmt.Fprintf(os.Stderr, "  %d/%d simulations had finished\n", len(pe.Completed), pe.Total)
			}
			fatal(err)
		}
		fmt.Println(res.Table)
		if res.Notes != "" {
			fmt.Printf("paper shape: %s\n", res.Notes)
		}
		fmt.Printf("(%s regenerated in %.1fs)\n\n", res.ID, time.Since(start).Seconds())
		if *metrics != "" {
			root.Children = append(root.Children, res.Snapshot())
		}
	}
	if *metrics != "" {
		if err := root.WriteFile(*metrics, os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// splitValidated splits a comma-separated flag value, trims whitespace,
// and rejects any entry not in the valid set — up front, with the valid
// names in the error, instead of deep inside a run.
func splitValidated(list string, valid []string, kind string) ([]string, error) {
	ok := make(map[string]bool, len(valid))
	for _, v := range valid {
		ok[v] = true
	}
	var out []string
	for _, raw := range strings.Split(list, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		if !ok[name] {
			return nil, fmt.Errorf("unknown %s %q (valid: %s)", kind, name, strings.Join(valid, ", "))
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no %ss given", kind)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(2)
}
