package main

import (
	"context"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// schedule returns n arrival offsets of a Poisson process over window,
// conditioned on exactly n arrivals: sorted uniform draws. Fixing the
// count keeps each rate step's offered load exact while the gaps stay
// exponential-like. The same seed gives the same schedule.
func schedule(seed, stream uint64, n int, window time.Duration) []time.Duration {
	r := rand.New(rand.NewPCG(seed, stream))
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(r.Float64() * float64(window))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	return dues
}

// loadResult is what one open-loop step measured.
type loadResult struct {
	// latency is each request's completion time minus the time it was
	// due, so a stall that delays later sends counts against them.
	latency []time.Duration
	// lag is each request's send time minus its due time: how late the
	// generator ran.
	lag []time.Duration
	// backlogMax is the most requests due but not yet sent at once;
	// backlogEnd is that count when the last request fell due.
	backlogMax, backlogEnd int
	// wall runs from the step's start to its last completion.
	wall time.Duration
}

// openLoop sends request i at dues[i] after start, over conns senders,
// whether or not earlier requests have finished. Requests that fall due
// while every sender is busy wait in the backlog.
func openLoop(ctx context.Context, conns int, dues []time.Duration, send func(ctx context.Context, i int)) loadResult {
	res := loadResult{latency: make([]time.Duration, len(dues)), lag: make([]time.Duration, len(dues))}
	queue := make(chan int, len(dues)) // one slot per request: the dispatcher never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				res.lag[i] = time.Since(start) - dues[i]
				send(ctx, i)
				res.latency[i] = time.Since(start) - dues[i]
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
dispatch:
	for i, due := range dues {
		if wait := due - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		queue <- i
		res.backlogMax = max(res.backlogMax, len(queue))
	}
	res.backlogEnd = len(queue)
	close(queue)
	wg.Wait()
	res.wall = time.Since(start)
	return res
}
