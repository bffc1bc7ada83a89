package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"

	"ctrpred/internal/stats"
)

// latencyTracker keeps a sliding window of successful cell dispatch
// latencies so the hedging trigger can adapt to what "slow" means on
// this cluster right now.
type latencyTracker struct {
	mu  sync.Mutex
	buf [64]time.Duration
	n   uint64 // total recorded; buf holds the most recent min(n, 64)
}

// minHedgeSamples gates adaptive hedging: with fewer observations the
// quantile is noise and hedging stays off.
const minHedgeSamples = 8

func (t *latencyTracker) record(d time.Duration) {
	t.mu.Lock()
	t.buf[t.n%uint64(len(t.buf))] = d
	t.n++
	t.mu.Unlock()
}

// quantile returns the q-quantile of the window (stats.Percentile's
// nearest rank), or false before minHedgeSamples observations exist.
func (t *latencyTracker) quantile(q float64) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n < minHedgeSamples {
		return 0, false
	}
	window := make([]float64, min(t.n, uint64(len(t.buf))))
	for i := range window {
		window[i] = float64(t.buf[i])
	}
	return time.Duration(stats.Percentile(window, q)), true
}

// postResult is one dispatch attempt's outcome.
type postResult struct {
	out  []byte
	hdr  http.Header
	err  error
	node string
}

// hedgeDelay resolves the hedging trigger: how long a cell dispatch
// may run before a speculative duplicate goes to the next ring
// candidate. Negative disables hedging for this dispatch.
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.cfg.HedgeAfter < 0 {
		return -1
	}
	if c.cfg.HedgeAfter > 0 {
		return c.cfg.HedgeAfter
	}
	// Adaptive: twice the observed p90, floored — a request past that is
	// a straggler worth racing. Off until the window has enough samples,
	// so a fresh coordinator behaves exactly like the unhedged one.
	p90, ok := c.cellLat.quantile(0.90)
	if !ok {
		return -1
	}
	d := 2 * p90
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}

// hedgedPost runs one cell dispatch with a per-attempt deadline and a
// speculative hedge: if primary has not answered when the hedge
// trigger fires, the same request goes to backup, the first canonical
// response wins, and the loser's context is cancelled. The paper's
// idea at the service tier — predict the straggler, precompute the
// answer elsewhere, never let the critical path wait on one slow node.
//
// A fast primary failure (before the trigger) returns immediately so
// the caller's failover loop handles it; once the hedge is in flight,
// the race runs to the first success or to both failing (the primary's
// error wins reporting, and only the failed nodes are reported — a
// cancelled loser is not a failure). The caller notes the primary
// dispatch; the hedge notes its own.
func (c *Coordinator) hedgedPost(ctx context.Context, primary, backup, path string, body []byte) postResult {
	attemptCtx, cancel := context.WithTimeout(ctx, c.cfg.CellTimeout)
	defer cancel()

	results := make(chan postResult, 2) // buffered: the loser must never leak
	post := func(node string) {
		start := time.Now()
		out, hdr, err := c.client.PostJSON(attemptCtx, node, path, body)
		if err == nil {
			c.cellLat.record(time.Since(start))
		}
		results <- postResult{out: out, hdr: hdr, err: err, node: node}
	}

	go post(primary)

	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	if backup != "" && backup != primary {
		if delay := c.hedgeDelay(); delay >= 0 {
			hedgeTimer = time.NewTimer(delay)
			defer hedgeTimer.Stop()
			hedgeC = hedgeTimer.C
		}
	}

	hedged := false
	outstanding := 1
	var primaryErr *postResult
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			hedged = true
			outstanding++
			c.hedges.Add(1)
			c.reg.NoteDispatch(backup)
			go post(backup)
		case res := <-results:
			outstanding--
			if res.err == nil {
				if hedged && res.node == backup {
					c.hedgeWins.Add(1)
				}
				return res
			}
			if res.node == primary {
				primaryErr = &res
				if !hedged {
					// Fast-fail before the trigger: let the failover loop
					// pick the next candidate instead of waiting out a race
					// that has not started.
					return res
				}
			}
			if outstanding == 0 {
				if primaryErr != nil {
					return *primaryErr
				}
				return res
			}
			// One attempt failed, the other is still in flight: wait it
			// out (the deadline bounds the wait).
		}
	}
}
