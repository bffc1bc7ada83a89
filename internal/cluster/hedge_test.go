package cluster

import (
	"testing"
	"time"
)

// TestHedgeQuantileNearestRank pins the hedge trigger to the repo's one
// percentile definition, stats.Percentile's nearest rank ⌈q·n⌉: with
// 8 samples, p90 is the 8th smallest, not the 7th a rounded rank picks.
func TestHedgeQuantileNearestRank(t *testing.T) {
	var lt latencyTracker
	for i := 8; i >= 1; i-- {
		lt.record(time.Duration(i) * time.Millisecond)
	}
	got, ok := lt.quantile(0.90)
	if !ok {
		t.Fatal("quantile unavailable with 8 samples")
	}
	if want := 8 * time.Millisecond; got != want {
		t.Errorf("p90 of 1..8 ms = %v; want %v", got, want)
	}
	if got, _ := lt.quantile(0.5); got != 4*time.Millisecond {
		t.Errorf("p50 of 1..8 ms = %v; want 4ms", got)
	}
}
