// Benchmarks that regenerate every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment end to end,
// prints the regenerated table once, and reports the figure's headline
// numbers as custom metrics so `go test -bench` output records them.
//
// Scale: each iteration uses a reduced instruction window so the full
// suite completes in minutes. cmd/experiments exposes the same figures
// with adjustable -instr/-footprint for longer runs.
package ctrpred

import (
	"fmt"
	"sync"
	"testing"
)

// benchOptions is the per-figure budget used by the benchmarks.
func benchOptions() ExperimentOptions {
	opt := DefaultOptions()
	// Keep the default (paper-scale) footprint; trim the instruction
	// window so the whole suite completes in minutes.
	opt.Scale.Instructions = 100_000
	return opt
}

var printOnce sync.Map

// printTable shows the regenerated table once per figure, only under
// `go test -v`, and only after stopping the benchmark timer: table
// rendering must neither pollute the timed region nor break tools
// (benchstat) that parse the benchmark output lines.
func printTable(b *testing.B, id string, res ExperimentResult) {
	b.Helper()
	if _, done := printOnce.LoadOrStore(id, true); done || !testing.Verbose() {
		return
	}
	b.StopTimer()
	defer b.StartTimer()
	fmt.Printf("\n%s\n", res.Table)
	if res.Notes != "" {
		fmt.Printf("paper shape: %s\n", res.Notes)
	}
}

// runFigure executes the experiment, prints its table (once per figure,
// verbose runs only), and returns the result for metric extraction.
// runFigure times regenerating one figure. An untimed warm-up
// regeneration builds the process-wide machine templates its grid
// needs, so the timed iterations measure the steady-state per-cell
// cost — what each further sweep or service request pays — not the
// one-time template construction.
func runFigure(b *testing.B, id string) ExperimentResult {
	b.Helper()
	if _, err := RunExperiment(id, benchOptions()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunExperiment(id, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable(b, id, res)
	return res
}

func reportSeries(b *testing.B, res ExperimentResult, series ...string) {
	for _, s := range series {
		if vals, ok := res.Series[s]; ok {
			b.ReportMetric(vals["Average"], s+"_avg")
		}
	}
}

// BenchmarkTable1Config renders Table 1 (processor model parameters).
func BenchmarkTable1Config(b *testing.B) {
	runFigure(b, "table1")
}

// BenchmarkFigure4Timeline measures the single-miss latency of the four
// Figure 4 timelines (baseline, warm seq cache, prediction, oracle).
func BenchmarkFigure4Timeline(b *testing.B) {
	res := runFigure(b, "fig4")
	b.ReportMetric(res.Series["baseline"]["data_ready"], "baseline_cycles")
	b.ReportMetric(res.Series["otp-prediction"]["data_ready"], "pred_cycles")
	b.ReportMetric(res.Series["oracle"]["data_ready"], "oracle_cycles")
}

// BenchmarkFigure7HitRates256K regenerates Figure 7: sequence-number hit
// rates of 128K/512K caches vs OTP prediction with a 256 KB L2.
func BenchmarkFigure7HitRates256K(b *testing.B) {
	res := runFigure(b, "fig7")
	reportSeries(b, res, "Pred", "128K_Seq#_Cache", "512K_Seq#_Cache")
}

// BenchmarkFigure8HitRates1M regenerates Figure 8 (1 MB L2).
func BenchmarkFigure8HitRates1M(b *testing.B) {
	res := runFigure(b, "fig8")
	reportSeries(b, res, "Pred", "128K_Seq#_Cache", "512K_Seq#_Cache")
}

// BenchmarkFigure9Breakdown regenerates Figure 9: the coverage breakdown
// of a 32 KB sequence-number cache combined with prediction.
func BenchmarkFigure9Breakdown(b *testing.B) {
	res := runFigure(b, "fig9")
	reportSeries(b, res, "Pred_Hit", "Seq_Only", "Both_Hit")
}

// BenchmarkFigure10IPC256K regenerates Figure 10: normalized IPC of
// 4K/128K/512K sequence-number caches vs prediction, 256 KB L2.
func BenchmarkFigure10IPC256K(b *testing.B) {
	res := runFigure(b, "fig10")
	reportSeries(b, res, "Pred", "Seq_Cache_4K", "Seq_Cache_512K")
}

// BenchmarkFigure11IPC1M regenerates Figure 11 (1 MB L2).
func BenchmarkFigure11IPC1M(b *testing.B) {
	res := runFigure(b, "fig11")
	reportSeries(b, res, "Pred", "Seq_Cache_4K", "Seq_Cache_512K")
}

// BenchmarkFigure12OptHitRates256K regenerates Figure 12: regular vs
// two-level vs context-based prediction rates, 256 KB L2.
func BenchmarkFigure12OptHitRates256K(b *testing.B) {
	res := runFigure(b, "fig12")
	reportSeries(b, res, "Regular", "Two-level", "Context")
}

// BenchmarkFigure13OptHitRates1M regenerates Figure 13 (1 MB L2).
func BenchmarkFigure13OptHitRates1M(b *testing.B) {
	res := runFigure(b, "fig13")
	reportSeries(b, res, "Regular", "Two-level", "Context")
}

// BenchmarkFigure14PredictionCounts regenerates Figure 14: the number of
// speculative pads issued under 256 KB vs 1 MB L2s.
func BenchmarkFigure14PredictionCounts(b *testing.B) {
	res := runFigure(b, "fig14")
	reportSeries(b, res, "256KB_L2", "1MB_L2")
}

// BenchmarkFigure15OptIPC256K regenerates Figure 15: normalized IPC of
// the optimized predictors, 256 KB L2.
func BenchmarkFigure15OptIPC256K(b *testing.B) {
	res := runFigure(b, "fig15")
	reportSeries(b, res, "Regular", "Two-level", "Context")
}

// BenchmarkFigure16OptIPC1M regenerates Figure 16 (1 MB L2).
func BenchmarkFigure16OptIPC1M(b *testing.B) {
	res := runFigure(b, "fig16")
	reportSeries(b, res, "Regular", "Two-level", "Context")
}

// BenchmarkAblationParameters sweeps the predictor design parameters the
// paper discusses (adaptivity, depth, history, threshold, swing).
func BenchmarkAblationParameters(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"bzip2", "gzip", "mcf", "swim", "twolf"}
	var res ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunExperiment("ablation", opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable(b, "ablation", res)
	b.ReportMetric(res.Series["pred_rate"]["regular (default)"], "adaptive_rate")
	b.ReportMetric(res.Series["pred_rate"]["non-adaptive"], "nonadaptive_rate")
}

// BenchmarkSingleRunMcfContext is a microbenchmark of simulator speed
// itself: simulated instructions per second on the heaviest predictor.
// One untimed warm-up run builds the process-wide (benchmark, scale,
// seed) template, so the timed iterations measure the steady-state
// per-run cost — what a sweep pays per cell — not the one-time
// template construction.
func BenchmarkSingleRunMcfContext(b *testing.B) {
	cfg := DefaultConfig(SchemePred(PredContext))
	cfg.Scale = Scale{Footprint: 1 << 20, Instructions: 50_000}
	if _, err := Run("mcf", cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := Run("mcf", cfg)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.CPU.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim_instrs/s")
}

// BenchmarkSingleRunMcfEngineBipBip is BenchmarkSingleRunMcfContext on
// the bipbip engine model: same workload and scheme, near-free
// decryption. It prices the EngineModel interface dispatch on a
// non-default model and measures the alternative-engine path's
// throughput.
func BenchmarkSingleRunMcfEngineBipBip(b *testing.B) {
	eng, err := ParseEngine("bipbip")
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(SchemePred(PredContext)).WithEngine(eng)
	cfg.Scale = Scale{Footprint: 1 << 20, Instructions: 50_000}
	if _, err := Run("mcf", cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := Run("mcf", cfg)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.CPU.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim_instrs/s")
}

// BenchmarkSingleRunMcfFaultsArmed is BenchmarkSingleRunMcfContext with
// the fault injector armed on a trigger that never fires: it prices the
// injector's per-fetch bookkeeping (pair capture + trigger evaluation)
// on a clean run. Compare sim_instrs/s against BenchmarkSingleRunMcfContext
// over repeated samples (-count) — the armed-but-idle overhead budget is
// ≤1%.
func BenchmarkSingleRunMcfFaultsArmed(b *testing.B) {
	cfg := DefaultConfig(SchemePred(PredContext))
	cfg.Scale = Scale{Footprint: 1 << 20, Instructions: 50_000}
	plan := &FaultPlan{Attacks: []FaultAttack{{
		Kind:    FaultBitFlip,
		Trigger: FaultTrigger{Fetch: 1 << 60}, // armed, never due
	}}}
	cfg = cfg.WithFaults(plan)
	if _, err := Run("mcf", cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		res, err := Run("mcf", cfg)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.CPU.Instructions
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "sim_instrs/s")
}

// BenchmarkAttackCampaign runs the adversarial detection-coverage
// matrix: every attack class against every scheme family with the
// integrity tree enabled and quarantine recovery. The experiment fails
// (and so does the benchmark) unless detection is total and clean runs
// raise zero security events.
func BenchmarkAttackCampaign(b *testing.B) {
	opt := benchOptions()
	var res ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunExperiment("attack", opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable(b, "attack", res)
	b.ReportMetric(res.Series["baseline"]["bitflip"], "bitflip_detect_rate")
	b.ReportMetric(res.Series["baseline"]["replay"], "replay_detect_rate")
	b.ReportMetric(res.Series["latency:baseline"]["bitflip"], "bitflip_latency_cycles")
}

// BenchmarkContextSwitch measures the Section 2.2 multiprogramming
// asymmetry: counter caches are gutted by context switches, prediction
// state travels with the process.
func BenchmarkContextSwitch(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"mcf", "vpr", "vortex"}
	var res ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunExperiment("ctxswitch", opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable(b, "ctxswitch", res)
	b.ReportMetric(res.Series["seqcache-128K"]["window/128"], "cache_cov_fastswitch")
	b.ReportMetric(res.Series["pred-regular"]["window/128"], "pred_cov_fastswitch")
}

// BenchmarkIntegrityOverhead measures the IPC cost of the hash-tree
// authentication the paper assumes alongside counter-mode encryption.
func BenchmarkIntegrityOverhead(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"mcf", "swim", "gcc"}
	var res ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunExperiment("integrity", opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable(b, "integrity", res)
	b.ReportMetric(res.Series["normalized_ipc"]["pred-regular"], "pred_tree_ipc_ratio")
	b.ReportMetric(res.Series["normalized_ipc"]["baseline"], "baseline_tree_ipc_ratio")
}

// BenchmarkSeqCacheSweep regenerates the Section 2.2 motivating claim:
// counter-cache hit rate plateaus with size.
func BenchmarkSeqCacheSweep(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"mcf", "vpr", "vortex", "gcc"}
	var res ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunExperiment("seqsweep", opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable(b, "seqsweep", res)
	b.ReportMetric(res.Series["hit_rate"]["128KB"], "cache128K_rate")
	b.ReportMetric(res.Series["hit_rate"]["prediction (0KB)"], "pred_rate")
}

// BenchmarkHybridPrefetch regenerates the Section 9.2 composition of
// prediction with pre-decryption prefetch.
func BenchmarkHybridPrefetch(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"mcf", "swim", "art"}
	var res ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunExperiment("hybrid", opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable(b, "hybrid", res)
	b.ReportMetric(res.Series["normalized_ipc"]["hybrid"], "hybrid_ipc")
	b.ReportMetric(res.Series["normalized_ipc"]["prediction-only"], "pred_ipc")
}

// BenchmarkTenants runs the multi-tenant interference matrix: each
// benchmark solo, mixed against a background tenant on a seeded
// arrival schedule, with retained predictor state, and against an
// adversarial co-tenant. Headline metrics: clean-mix and adversarial
// slowdown in global virtual time.
func BenchmarkTenants(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"gzip", "mcf"}
	opt.Scale.Instructions = 20_000
	var res ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunExperiment("tenants", opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable(b, "tenants", res)
	b.ReportMetric(res.Series["Mix_Slowdown"]["Average"], "mix_slowdown_avg")
	b.ReportMetric(res.Series["Adv_Slowdown"]["Average"], "adv_slowdown_avg")
}

// BenchmarkCapacity runs the capacity-planning search: the largest
// co-tenant count per scheme that still meets a slowdown ≤ 8 SLO.
func BenchmarkCapacity(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"gzip", "mcf"}
	opt.Scale.Instructions = 20_000
	opt.MaxTenants = 6
	opt.SLOMaxSlowdown = 8
	var res ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunExperiment("capacity", opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable(b, "capacity", res)
	b.ReportMetric(res.Series["Combined_32K"]["Average"], "combined_capacity_avg")
	b.ReportMetric(res.Series["Pred"]["Average"], "pred_capacity_avg")
}

// BenchmarkValuePrediction regenerates the Section 9.3 comparison with
// load-value prediction.
func BenchmarkValuePrediction(b *testing.B) {
	opt := benchOptions()
	opt.Benchmarks = []string{"mcf", "gcc"}
	var res ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunExperiment("valuepred", opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable(b, "valuepred", res)
	b.ReportMetric(res.Series["normalized_ipc"]["lvp-only"], "lvp_ipc")
	b.ReportMetric(res.Series["normalized_ipc"]["otp-pred-only"], "otp_ipc")
}
