package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Metric names as BENCHMARK.json declares them. Every run prints every
// name of its mode: endToEnd untraced, perLayer traced.
var endToEnd = []struct{ name, unit string }{
	{"sim_instrs_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ipc_gmean", "IPC"},
	{"pred_rate_mean", "ratio"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"goodput_rps", "1/s"},
	{"max_rate_rps", "1/s"},
}

var perLayer = []struct{ name, unit string }{
	{"sim.template_build_ms", "ms"},
	{"sim.new_machine_ms", "ms"},
	{"sim.template_builds", "count"},
	{"cpu.run_s", "s"},
	{"cpu.host_ns_per_instr", "ns"},
	{"cpu.instructions", "count"},
	{"cpu.cycles", "count"},
	{"cache.access_ns", "ns"},
	{"cache.flush_us", "us"},
	{"memsys.flushes", "count"},
	{"memsys.flushed_lines", "count"},
	{"cache.dirty_per_flush_ratio", "ratio"},
	{"cache.l1d_miss_rate", "ratio"},
	{"cache.l2_miss_rate", "ratio"},
	{"tlb.dtlb_misses", "count"},
	{"seqcache.hit_rate", "ratio"},
	{"seqcache.access_ns", "ns"},
	{"predictor.predict_observe_ns", "ns"},
	{"predictor.hit_rate", "ratio"},
	{"predictor.guesses_per_fetch", "ratio"},
	{"predictor.resets", "count"},
	{"cryptoengine.issued_total", "count"},
	{"cryptoengine.spec_useful_ratio", "ratio"},
	{"cryptoengine.stall_cycles", "count"},
	{"cryptoengine.queue_wait_p99_cycles", "cycles"},
	{"ctr.pad_ns", "ns"},
	{"ctr.pads", "count"},
	{"dram.access_ns", "ns"},
	{"dram.accesses", "count"},
	{"dram.row_hit_rate", "ratio"},
	{"secmem.fetch_ns", "ns"},
	{"secmem.evict_ns", "ns"},
	{"secmem.fetches", "count"},
	{"secmem.evictions", "count"},
	{"secmem.counter_coverage", "ratio"},
	{"secmem.fetch_lat_p50_cycles", "cycles"},
	{"secmem.fetch_lat_p99_cycles", "cycles"},
	{"secmem.decrypt_exposed_per_fetch", "cycles"},
	{"integrity.update_us", "us"},
	{"integrity.verify_us", "us"},
	{"sha256.node_hash_ns", "ns"},
	{"integrity.updates", "count"},
	{"integrity.verifies", "count"},
	{"integrity.levels_per_verify", "ratio"},
	{"integrity.node_cache_hit_ratio", "ratio"},
	{"experiments.cell_ms_p50", "ms"},
	{"experiments.cell_ms_max", "ms"},
	{"runpool.utilization", "ratio"},
	{"stats.snapshot_encode_ms", "ms"},
	{"server.hit_ratio", "ratio"},
	{"server.hit_lat_p50_ms", "ms"},
	{"server.miss_lat_p50_ms", "ms"},
	{"server.ttfb_ms", "ms"},
	{"server.rejected", "count"},
	{"cluster.retries", "count"},
	{"cluster.peer_hits", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// outcome is what one run of a workload measured and checked.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// failures explains each failed check, printed before the result.
	failures []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// check counts one correctness check, recording why it failed.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// result is the contract's final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueInUnit `json:"metrics"`
}

type valueInUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the human-readable metric lines, then the result object as
// the last line. It fails when a declared metric was not measured.
func emit(w io.Writer, o *outcome, traced bool) error {
	names := endToEnd
	if traced {
		names = perLayer
	}
	for _, f := range o.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	errRate := 0.0
	if o.attempted > 0 {
		errRate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "%-36s %.6g (%d failed of %d attempted)\n", "error_rate", errRate, o.failed, o.attempted)
	res := result{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]valueInUnit, len(names))}
	for _, m := range names {
		v, ok := o.metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		fmt.Fprintf(w, "%-36s %-14s %s\n", m.name, strconv.FormatFloat(v, 'g', 10, 64), m.unit)
		res.Metrics[m.name] = valueInUnit{Value: v, Unit: m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
}

// tail returns the highest nearest-rank percentile of vals that still
// has at least 10 samples above it, with that percentile (0..100). With
// 10 or fewer samples there is no such percentile and ok is false.
func tail(vals []float64) (v, pct float64, ok bool) {
	n := len(vals)
	if n <= 10 {
		return 0, 0, false
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := n - 10 // 1-based; samples rank+1..n lie beyond it
	return s[rank-1], 100 * float64(rank) / float64(n), true
}

// quantile is the nearest-rank q-quantile (stats.Percentile's rule).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t / float64(len(vals))
}

func gmean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range vals {
		t += math.Log(v)
	}
	return math.Exp(t / float64(len(vals)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
