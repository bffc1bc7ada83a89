package main

import (
	"errors"
	"testing"
	"time"
)

// Each reply counts toward goodput once: a refused request and a reply
// that differs from the library are both misses, and neither takes away
// a good reply.
func TestGoodputCountsEachReplyOnce(t *testing.T) {
	st := stepResult{
		reqs:    make([]svcRequest, 4),
		replies: []reply{{}, {err: errors.New("status 429")}, {}, {}},
		bad:     []bool{false, false, true, false},
		load: loadResult{
			latency: []time.Duration{time.Millisecond, time.Millisecond, time.Millisecond, 2 * serviceLimit},
			wall:    time.Second,
		},
	}
	if got := goodput([]stepResult{st}); got != 1 {
		t.Fatalf("goodput %v/s, want 1/s: only the first reply is correct within the limit", got)
	}
}

// A step passes only if it kept pace with its offered rate, so a backlog
// that grew through the step fails it even when the tail is short.
func TestMeetsLimitRequiresKeepingPace(t *testing.T) {
	step := func(wall time.Duration) stepResult {
		n := 100
		st := stepResult{rate: 100, reqs: make([]svcRequest, n), replies: make([]reply, n),
			load: loadResult{latency: make([]time.Duration, n), wall: wall}}
		for i := range st.load.latency {
			st.load.latency[i] = 10 * time.Millisecond
		}
		return st
	}
	if !meetsLimit(step(1020 * time.Millisecond)) {
		t.Error("a step that finished 100 requests in 1.02 s at 100/s offered should pass")
	}
	if meetsLimit(step(1300 * time.Millisecond)) {
		t.Error("a step that needed 1.3 s for 1 s of arrivals fell behind and should fail")
	}
}

// The staircase's knee is the median offered rate after its first miss,
// which overshot; with no miss the knee lies above it and the highest
// achieved rate stands in.
func TestKneeRate(t *testing.T) {
	step := func(rate float64, passed bool) stepResult {
		return stepResult{rate: rate, passed: passed, reqs: make([]svcRequest, int(rate)), load: loadResult{wall: time.Second}}
	}
	climb := []stepResult{step(100, true), step(120, true), step(144, false), step(136, false), step(128, true), step(136, true), step(144, false)}
	if got := kneeRate(climb); got != 136 {
		t.Errorf("knee %v/s, want 136/s, the median of 136, 128, 136 and 144", got)
	}
	if got := kneeRate(climb[:2]); got != 120 {
		t.Errorf("knee %v/s with no miss, want the highest achieved rate, 120/s", got)
	}
	if got := kneeRate(climb[:3]); got != 144 {
		t.Errorf("knee %v/s with the only miss last, want its rate, 144/s", got)
	}
}
