package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"ctrpred/internal/predictor"
	"ctrpred/internal/sim"
)

func smallConfig(seed uint64) sim.Config {
	cfg := perfConfig(sim.SchemePred(predictor.SchemeContext), seed)
	cfg.Scale.Footprint = 256 << 10
	cfg.Scale.Instructions = 5_000
	return cfg
}

func TestCaptureIdenticalForSeed(t *testing.T) {
	ctx := context.Background()
	a, err := capture(ctx, "swim", smallConfig(derivedSeed(3, 0)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := capture(ctx, "swim", smallConfig(derivedSeed(3, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.refs) == 0 || len(a.fetchLat) == 0 {
		t.Fatalf("capture saw %d references and %d fetches", len(a.refs), len(a.fetchLat))
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two captures of the same seed differ")
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// Metric names are well formed, unique, and exactly the ones
// BENCHMARK.json declares, with the same units.
func TestMetricNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i, pair := range []struct {
		printed []struct{ name, unit string }
		decl    []declared
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(pair.printed) != len(pair.decl) {
			t.Errorf("list %d: %d metrics printed, %d declared", i, len(pair.printed), len(pair.decl))
			continue
		}
		for j, m := range pair.printed {
			if !metricName.MatchString(m.name) || len(m.name) > 64 {
				t.Errorf("metric name %q does not match %s", m.name, metricName)
			}
			if seen[m.name] {
				t.Errorf("metric %q declared twice", m.name)
			}
			seen[m.name] = true
			if d := pair.decl[j]; d.Name != m.name || d.Unit != m.unit {
				t.Errorf("printed %s (%s), BENCHMARK.json declares %s (%s)", m.name, m.unit, d.Name, d.Unit)
			}
		}
	}
}

// Every per-layer metric must come out of a traced run; a short traced
// simulator run must set each one.
func TestTracedRunSetsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced workload")
	}
	w := simWorkloads()["integrity"]
	w.seeds = 2
	w.config = func(s sim.Scheme, seed uint64) sim.Config {
		cfg := integrityConfig(s, seed)
		// Small enough for more than 10 traced passes in half of the
		// window even under the race detector.
		cfg.Scale.Footprint = 64 << 10
		cfg.Scale.Instructions = 1_000
		return cfg
	}
	o := newOutcome()
	if _, err := runSimWorkload(context.Background(), w, 1, 16*time.Second, true, io.Discard, o); err != nil {
		t.Fatal(err)
	}
	o.set("trace.spans", 1)
	for _, m := range perLayer {
		if _, ok := o.metrics[m.name]; !ok {
			t.Errorf("traced run did not set %s", m.name)
		}
	}
	if o.failed != 0 {
		t.Errorf("checks failed: %v", o.failures)
	}
}
