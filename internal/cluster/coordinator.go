package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"ctrpred/internal/experiments"
	"ctrpred/internal/runpool"
	"ctrpred/internal/server"
	"ctrpred/internal/stats"
)

// Config sizes a Coordinator. The zero value plus a worker list is
// usable; every knob has a sane default.
type Config struct {
	// Workers are the initial worker base URLs ("http://host:port").
	// More can join at runtime via POST /v1/cluster/join.
	Workers []string
	// Fanout caps in-flight cells per experiment (0: 2 per worker).
	Fanout int
	// Jobs caps concurrently running coordinator jobs (0: 2 per worker,
	// at least 4 — coordinator jobs mostly wait on the network).
	Jobs int
	// Backlog caps queued jobs behind the running ones (0: 2×Jobs;
	// < 0: none). A full backlog rejects with 429 + Retry-After.
	Backlog int
	// CacheEntries bounds the coordinator's own result cache (0: 256;
	// < 0: disabled).
	CacheEntries int
	// VNodes is the ring points per worker (0: 64).
	VNodes int
	// FailThreshold is consecutive failures before mark-down (0: 2).
	FailThreshold int
	// ProbeInterval paces the health prober (0: 1 s; < 0: disabled —
	// dispatch failures still mark workers down, but nothing revives
	// them).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (0: 2 s).
	ProbeTimeout time.Duration
	// RetryBudget is the redispatch (failover) budget per cell beyond
	// the first attempt (0: 3; < 0: none).
	RetryBudget int
	// SaturationRetries is how many 429s a cell absorbs on one node
	// before failing over (0: 8; < 0: none).
	SaturationRetries int
	// MaxRetryWait caps one saturation backoff sleep (0: 2 s).
	MaxRetryWait time.Duration
	// DrainTimeout is how long Shutdown lets running jobs finish (0: 5 s).
	DrainTimeout time.Duration
	// HTTPClient overrides the transport to workers (nil: default).
	HTTPClient *http.Client
	// CellTimeout bounds one cell dispatch attempt (0: 60 s). A cell
	// still unanswered at the deadline counts as a failed dispatch and
	// fails over.
	CellTimeout time.Duration
	// HedgeAfter is the hedging trigger: how long a cell dispatch may
	// run before a speculative duplicate goes to the next ring
	// candidate, first canonical response winning. 0 adapts the trigger
	// to 2× the observed p90 cell latency (off until enough samples
	// exist); > 0 fixes it; < 0 disables hedging.
	HedgeAfter time.Duration
	// LookupTimeout bounds one peer GET /v1/results/{key} probe (0: 2 s)
	// so a stalled worker cannot wedge a cache-recovery sweep.
	LookupTimeout time.Duration
	// StreamIdleTimeout bounds the silence between events on a relayed
	// worker stream (0: 15 s; < 0: unbounded). Workers heartbeat every
	// few hundred milliseconds, so a silent stream is a wedged worker;
	// on expiry the relay fails over.
	StreamIdleTimeout time.Duration
	// BreakerCooldown is the per-worker circuit breaker's open window:
	// how long a marked-down worker waits before a half-open trial
	// dispatch may probe it (0: 5 s).
	BreakerCooldown time.Duration
	// Journal, when set, records every completed sweep cell durably and
	// is consulted before dispatching one — a restarted coordinator
	// resumes a grid re-running zero finished cells.
	Journal *Journal
	// DisableLocalFallback turns off degraded mode. By default a
	// coordinator whose every dispatch candidate is exhausted runs the
	// job locally, in-process, behind a warning metric — an answer late
	// beats an error during a full outage. Disabled, the job fails with
	// ErrDispatchExhausted.
	DisableLocalFallback bool
}

func (cfg Config) withDefaults() Config {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 2 * len(cfg.Workers)
		if cfg.Jobs < 4 {
			cfg.Jobs = 4
		}
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 3
	}
	if cfg.RetryBudget < 0 {
		cfg.RetryBudget = 0
	}
	if cfg.SaturationRetries == 0 {
		cfg.SaturationRetries = 8
	}
	if cfg.SaturationRetries < 0 {
		cfg.SaturationRetries = 0
	}
	if cfg.MaxRetryWait <= 0 {
		cfg.MaxRetryWait = 2 * time.Second
	}
	if cfg.CellTimeout <= 0 {
		cfg.CellTimeout = 60 * time.Second
	}
	if cfg.LookupTimeout <= 0 {
		cfg.LookupTimeout = 2 * time.Second
	}
	if cfg.StreamIdleTimeout == 0 {
		cfg.StreamIdleTimeout = 15 * time.Second
	}
	if cfg.StreamIdleTimeout < 0 {
		cfg.StreamIdleTimeout = 0
	}
	return cfg
}

// Coordinator fronts a cluster of ctrpredd workers: it is a
// server.Server — the same routes, validation, result cache, admission
// and response shaping a single node has — whose executor is the
// cluster. It routes each job to the worker owning its content address
// on the ring, splits partitionable experiment grids into per-benchmark
// cells dispatched with bounded fan-out, reassembles the parts
// byte-identically, retries saturated workers with jittered backoff,
// and requeues cells when a worker dies mid-job. Create with New, mount
// as an http.Handler, stop with Shutdown.
type Coordinator struct {
	*server.Server
	cfg    Config
	reg    *Registry
	client *Client
	// local runs jobs in-process in degraded mode.
	local server.Local

	stopProbe context.CancelFunc
	probeDone chan struct{}

	joins         atomic.Uint64
	simsRelay     atomic.Uint64
	expsSplit     atomic.Uint64
	expsFwd       atomic.Uint64
	cellsOK       atomic.Uint64
	cellsCache    atomic.Uint64 // cells answered from a worker's cache
	satRetries    atomic.Uint64 // 429 backoff retries
	failovers     atomic.Uint64 // redispatches to another worker
	peerHits      atomic.Uint64 // results recovered via GET /v1/results
	hedges        atomic.Uint64 // speculative duplicate dispatches issued
	hedgeWins     atomic.Uint64 // races the hedge won
	corruptBodies atomic.Uint64 // responses discarded on digest mismatch
	journalHits   atomic.Uint64 // cells answered from the sweep journal
	journalApp    atomic.Uint64 // cells appended to the sweep journal
	localRuns     atomic.Uint64 // degraded-mode in-process executions

	// cellLat tracks successful cell dispatch latencies for the
	// adaptive hedge trigger.
	cellLat latencyTracker
}

// New assembles a Coordinator over cfg.Workers and starts its health
// prober (unless probing is disabled).
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	client := NewClient(cfg.HTTPClient)
	client.StreamIdle = cfg.StreamIdleTimeout
	c := &Coordinator{
		cfg:       cfg,
		reg:       NewRegistry(cfg.VNodes, cfg.FailThreshold, cfg.BreakerCooldown),
		client:    client,
		probeDone: make(chan struct{}),
	}
	for _, w := range cfg.Workers {
		c.reg.Add(w)
	}
	c.Server = server.NewWithExecutor(server.Config{
		Workers:      cfg.Jobs,
		Backlog:      cfg.Backlog,
		CacheEntries: cfg.CacheEntries,
		DrainTimeout: cfg.DrainTimeout,
	}, c)
	c.Handle("POST /v1/cluster/join", "join", c.handleJoin)
	c.Handle("GET /v1/cluster", "cluster", c.handleTopology)
	probeCtx, stop := context.WithCancel(context.Background())
	c.stopProbe = stop
	if cfg.ProbeInterval > 0 {
		go c.probeLoop(probeCtx)
	} else {
		close(c.probeDone)
	}
	return c
}

// Registry exposes the worker registry (topology inspection and tests).
func (c *Coordinator) Registry() *Registry { return c.reg }

// Shutdown stops the prober, then drains the job server (see
// server.Server.Shutdown). Safe to call repeatedly.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.stopProbe()
	<-c.probeDone
	return c.Server.Shutdown(ctx)
}

// probeLoop sweeps every registered worker's /healthz at the configured
// interval, reviving down workers that answer and marking down workers
// that stop answering.
func (c *Coordinator) probeLoop(ctx context.Context) {
	defer close(c.probeDone)
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, node := range c.reg.All() {
			pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
			err := c.client.Healthz(pctx, node)
			cancel()
			if ctx.Err() != nil {
				return
			}
			if err != nil {
				c.reg.ReportFailure(node, err, false)
			} else {
				c.reg.ReportSuccess(node)
			}
		}
	}
}

// --- the executor: what the job server runs on the cluster ---

// RunSim relays one simulation to its home worker.
func (c *Coordinator) RunSim(ctx context.Context, job server.SimJob, emit func(server.Event)) {
	c.simsRelay.Add(1)
	c.forward(ctx, "/v1/sim", job.Req, job.Key, job.Req.NoCache, job.Stream, emit, func(emit func(server.Event)) {
		c.local.RunSim(ctx, job, emit)
	})
}

// RunExperiment splits a partitionable grid into per-benchmark cells;
// grids that do not decompose by benchmark run whole on the key's home
// worker, exactly as a single node would run them.
func (c *Coordinator) RunExperiment(ctx context.Context, job server.ExperimentJob, emit func(server.Event)) {
	if experiments.Partitionable(job.Req.ID) && len(job.Options.Benchmarks) > 1 {
		c.expsSplit.Add(1)
		c.execPartitioned(ctx, job, emit)
		return
	}
	c.expsFwd.Add(1)
	c.forward(ctx, "/v1/experiments", job.Req, job.Key, job.Req.NoCache, job.Stream, emit, func(emit func(server.Event)) {
		c.local.RunExperiment(ctx, job, emit)
	})
}

// Lookup asks the cluster for an already-computed result, home worker
// first, then the rest of the ring sequence. Each probe is individually
// deadlined so one stalled worker cannot wedge the sweep.
func (c *Coordinator) Lookup(ctx context.Context, key string) ([]byte, string, bool) {
	for _, node := range c.reg.Candidates(key) {
		lctx, cancel := context.WithTimeout(ctx, c.cfg.LookupTimeout)
		b, digest, ok, err := c.client.LookupResult(lctx, node, key)
		cancel()
		if err == nil && ok {
			c.peerHits.Add(1)
			return b, digest, true
		}
	}
	return nil, "", false
}

// Health reports worker membership; with every worker down the
// coordinator still serves (local fallback, caches), but says so.
func (c *Coordinator) Health(fields map[string]any) {
	fields["workers"] = len(c.reg.All())
	fields["workers_up"] = len(c.reg.Up())
	if c.degraded() {
		fields["status"] = "degraded"
	}
}

// degraded reports whether the coordinator has workers registered but
// none of them up — the state in which dispatches end in local
// fallback (or typed errors).
func (c *Coordinator) degraded() bool {
	return len(c.reg.All()) > 0 && len(c.reg.Up()) == 0
}

// Metrics roots the tree at "coordinator" and adds dispatch counters,
// cell outcomes under "cells", and one child per worker.
func (c *Coordinator) Metrics(n *stats.Snapshot) {
	n.Name = "coordinator"
	n.Counter("joins", c.joins.Load())
	n.Counter("sims_relayed", c.simsRelay.Load())
	n.Counter("experiments_split", c.expsSplit.Load())
	n.Counter("experiments_forwarded", c.expsFwd.Load())
	degraded := uint64(0)
	if c.degraded() {
		degraded = 1
	}
	n.Counter("degraded", degraded)
	n.Counter("local_runs", c.localRuns.Load())

	cn := n.Child("cells")
	cn.Counter("completed", c.cellsOK.Load())
	cn.Counter("worker_cache_hits", c.cellsCache.Load())
	cn.Counter("saturation_retries", c.satRetries.Load())
	cn.Counter("failovers", c.failovers.Load())
	cn.Counter("peer_hits", c.peerHits.Load())
	cn.Counter("hedges", c.hedges.Load())
	cn.Counter("hedge_wins", c.hedgeWins.Load())
	cn.Counter("corrupt_bodies", c.corruptBodies.Load())
	cn.Counter("journal_hits", c.journalHits.Load())
	cn.Counter("journal_appends", c.journalApp.Load())

	wn := n.Child("workers")
	for _, w := range c.reg.Workers() {
		one := wn.Child(w.URL)
		one.Counter("dispatched", w.Dispatched)
		one.Counter("failures", w.Failures)
		one.Counter("mark_downs", w.MarkDowns)
		down := uint64(0)
		if w.Down {
			down = 1
		}
		one.Counter("down", down)
	}
}

// --- whole-job relay ---

// forward relays one whole job (a sim, or a non-partitionable
// experiment) to its home worker. For a plain client it relays the
// worker's plain response verbatim — the body a single node would have
// written, byte for byte. For a streaming client it relays the worker's
// stream, dropping the worker's own "accepted" line (the job server
// already emitted its own). Worker loss fails over to the next ring
// candidate, probing the cluster's caches first in case the result
// already exists somewhere; a streaming client may see progress events
// restart, but every simulation is deterministic, so the terminal
// result is the same bytes from any node. local is the degraded-mode
// run.
func (c *Coordinator) forward(ctx context.Context, path string, req any, key string, noCache, stream bool, emit func(server.Event), local func(emit func(server.Event))) {
	body, err := json.Marshal(req)
	if err != nil {
		emit(errorEvent("internal", http.StatusInternalServerError, err))
		return
	}
	peer, err := c.failover(ctx, key, noCache, "job",
		func(ctx context.Context, node, _ string) error {
			if stream {
				return c.relayStream(ctx, node, path, body, key, noCache, emit)
			}
			return c.relayPlain(ctx, node, path, body, key, emit)
		},
		func() error {
			local(func(ev server.Event) {
				if ev.Event == "error" {
					ev.Error = "degraded local run: " + ev.Error
				}
				emit(ev)
			})
			return nil
		})
	var se *StatusError
	switch {
	case errors.As(err, &se):
		emit(workerErrEvent(se))
	case err != nil:
		emit(jobErrEvent(err))
	case peer != nil:
		emit(server.Event{Event: "result", Key: key, Cached: true, Snapshot: peer})
	}
}

// relayPlain forwards one plain POST to node and emits the terminal
// event: the worker's success body untouched, or the worker-side job
// failure (timeout, panic, self-check) — an answer, not an outage. 502s
// and transport errors come back for the failover loop.
func (c *Coordinator) relayPlain(ctx context.Context, node, path string, body []byte, key string, emit func(server.Event)) error {
	out, hdr, err := c.client.PostJSON(ctx, node, path, body)
	var se *StatusError
	switch {
	case err == nil:
		// PostJSON verified the worker's digest, so the cache need not
		// hash the body again.
		emit(server.Event{Event: "result", Key: key, Snapshot: out, Digest: server.SnapshotDigest(hdr)})
	case errors.As(err, &se) && se.Status >= 500 && se.Status < 600 && se.Status != http.StatusBadGateway:
		emit(workerErrEvent(se))
	default:
		return err
	}
	c.reg.ReportSuccess(node)
	return nil
}

// relayStream forwards one streaming POST to node, relaying every event
// but the worker's "accepted" line. It returns nil once the worker
// delivered a terminal event, whatever happens to the stream after.
func (c *Coordinator) relayStream(ctx context.Context, node, path string, body []byte, key string, noCache bool, emit func(server.Event)) error {
	delivered := false
	err := c.client.PostStream(ctx, node, path, body, func(ev server.Event, _ json.RawMessage) error {
		switch ev.Event {
		case "accepted":
			return nil
		case "result":
			delivered = true
			c.reg.ReportSuccess(node)
			// The stream embeds the snapshot compacted; the canonical
			// indented body lives in the worker's cache. Relay that, so the
			// job server caches exactly what a single node would serve.
			// Deadlined: recovering the canonical form is an optimization,
			// not worth wedging on.
			ev.Compact = true
			if !noCache {
				lctx, cancel := context.WithTimeout(ctx, c.cfg.LookupTimeout)
				if canon, digest, ok, err := c.client.LookupResult(lctx, node, key); err == nil && ok {
					ev.Snapshot, ev.Digest, ev.Compact = canon, digest, false
				}
				cancel()
			}
		case "error":
			// The worker answered; the job itself failed. Deterministic
			// jobs fail the same way anywhere — report, don't requeue.
			delivered = true
			c.reg.ReportSuccess(node)
			ev.Status = statusForCode(ev.Code)
		}
		emit(ev)
		return nil
	})
	if delivered {
		return nil
	}
	if err == nil {
		err = fmt.Errorf("worker %s closed the stream without a terminal event", node)
	}
	return err
}

// workerErrEvent rebuilds a terminal error event from a worker's plain
// error response: the worker wrote its final Event as the JSON body, so
// the code and message survive the round trip; the status rides the
// HTTP response.
func workerErrEvent(se *StatusError) server.Event {
	var ev server.Event
	if len(se.Raw) > 0 && json.Unmarshal(se.Raw, &ev) == nil && ev.Event == "error" {
		ev.Status = se.Status
		return ev
	}
	return errorEvent("upstream", se.Status, errors.New(se.Message))
}

// --- partitioned sweeps ---

// execPartitioned splits a partitionable experiment into one cell per
// benchmark, dispatches the cells across the cluster with bounded
// fan-out (each cell routed to the worker owning its own content
// address, so a repeated grid hits warm caches), and reassembles the
// parts with experiments.MergeParts — byte-identical to the single-node
// run of the full grid.
func (c *Coordinator) execPartitioned(ctx context.Context, job server.ExperimentJob, emit func(server.Event)) {
	id := job.Req.ID
	jobs := make([]runpool.Job[experiments.Result], 0, len(job.Options.Benchmarks))
	for _, bench := range job.Options.Benchmarks {
		cell := job.Req
		cell.Benchmarks = []string{bench}
		cellBody, err := json.Marshal(cell)
		if err != nil {
			emit(errorEvent("internal", http.StatusInternalServerError, err))
			return
		}
		cellKey, err := cell.CacheKey()
		if err != nil {
			emit(errorEvent("internal", http.StatusInternalServerError, err))
			return
		}
		jobs = append(jobs, runpool.Job[experiments.Result]{
			Label: fmt.Sprintf("cell %s/%s", id, bench),
			Fn: func(ctx context.Context) (experiments.Result, error) {
				body, err := c.runCell(ctx, cellBody, cellKey, cell.NoCache)
				if err != nil {
					return experiments.Result{}, fmt.Errorf("cell %s: %w", bench, err)
				}
				return experiments.DecodeResultSnapshot(body)
			},
		})
	}

	fanout := c.cfg.Fanout
	if fanout <= 0 {
		fanout = max(2*len(c.reg.All()), 2)
	}
	parts, err := runpool.RunContext(ctx, runpool.Options{Workers: fanout, Progress: func(u runpool.Update) {
		emit(server.UpdateEvent(u))
	}}, jobs)
	if err != nil {
		emit(jobErrEvent(err))
		return
	}
	merged, err := experiments.MergeParts(id, parts)
	if err != nil {
		emit(errorEvent("internal", http.StatusInternalServerError, err))
		return
	}
	body, err := merged.Snapshot().JSON()
	if err != nil {
		emit(errorEvent("internal", http.StatusInternalServerError, err))
		return
	}
	emit(server.Event{Event: "result", Key: job.Key, Snapshot: body})
}

// runCell runs one cell to completion and returns its snapshot body:
// sweep journal first (a resumed grid re-runs zero finished cells),
// then the cluster, journaling whatever the dispatch produced.
func (c *Coordinator) runCell(ctx context.Context, body []byte, key string, noCache bool) ([]byte, error) {
	if j := c.cfg.Journal; j != nil {
		if b, ok := j.Get(key); ok {
			c.journalHits.Add(1)
			return b, nil
		}
	}
	out, err := c.dispatchCell(ctx, body, key, noCache)
	if err != nil {
		return nil, err
	}
	if j := c.cfg.Journal; j != nil {
		if jerr := j.Put(key, out); jerr == nil {
			c.journalApp.Add(1)
		}
		// A failed append is not a failed cell: the result is in hand,
		// only resumability degrades.
	}
	return out, nil
}

// dispatchCell runs one cell somewhere on the cluster: each attempt
// goes to a ring candidate under a per-attempt deadline, with a
// speculative hedge to the next candidate when it runs long (see
// hedgedPost); the failover loop handles everything else.
func (c *Coordinator) dispatchCell(ctx context.Context, body []byte, key string, noCache bool) ([]byte, error) {
	var out []byte
	peer, err := c.failover(ctx, key, noCache, "cell",
		func(ctx context.Context, node, backup string) error {
			res := c.hedgedPost(ctx, node, backup, "/v1/experiments", body)
			if res.err != nil {
				return res.err
			}
			c.reg.ReportSuccess(res.node)
			c.cellsOK.Add(1)
			if res.hdr.Get("X-Cache") == "hit" {
				c.cellsCache.Add(1)
			}
			out = res.out
			return nil
		},
		func() (err error) {
			out, err = c.runLocalCell(ctx, body)
			return err
		})
	if peer != nil {
		return peer, err
	}
	return out, err
}

// runLocalCell runs a cell in-process (degraded mode). A failure comes
// back as the StatusError a worker running it would have answered.
func (c *Coordinator) runLocalCell(ctx context.Context, body []byte) ([]byte, error) {
	var req server.ExperimentRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	job, err := server.NewExperimentJob(req, runpool.DefaultWorkers())
	if err != nil {
		return nil, err
	}
	var final server.Event
	c.local.RunExperiment(ctx, job, func(ev server.Event) {
		if ev.Event == "result" || ev.Event == "error" {
			final = ev
		}
	})
	if final.Event != "result" {
		return nil, &StatusError{Status: final.Status, Message: "degraded local run: " + final.Error}
	}
	return final.Snapshot, nil
}

// --- the failover loop ---

// ErrDispatchExhausted is the typed failure of a job whose bounded
// redispatch budget ran out without an answer (and, with the local
// fallback disabled, whose degraded mode was off). Callers can
// errors.Is against it to tell "the cluster cannot serve this" from
// "the job itself is bad".
var ErrDispatchExhausted = errors.New("dispatch budget exhausted")

// failover drives one job or cell (what names it in errors) across the
// cluster. try makes one attempt on node (backup: the next candidate,
// for hedging) and returns nil once it delivered an outcome. A 429
// waits out the worker's Retry-After (with jitter, bounded by
// SaturationRetries) and retries the same node; any other 4xx is the
// job's own deterministic failure and ends the loop; anything else — a
// dead worker, a 5xx, a corrupt body (digest mismatch) — reports the
// worker and redispatches to the next ring candidate, after probing the
// cluster's caches, since the dying worker may have finished and a peer
// may hold the bytes (then returned). When the budget runs out with
// every worker down, or no worker is registered, degraded mode runs
// local instead (unless disabled).
func (c *Coordinator) failover(ctx context.Context, key string, noCache bool, what string, try func(ctx context.Context, node, backup string) error, local func() error) ([]byte, error) {
	redispatch, satRetries := 0, 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cands := c.reg.Candidates(key)
		if len(cands) == 0 {
			return nil, c.fallback(errors.New("no workers registered"), local)
		}
		node := cands[redispatch%len(cands)]
		backup := ""
		if len(cands) > 1 {
			backup = cands[(redispatch+1)%len(cands)]
		}
		if redispatch > 0 && !noCache {
			if b, _, ok := c.Lookup(ctx, key); ok {
				return b, nil
			}
		}
		c.reg.NoteDispatch(node)
		err := try(ctx, node, backup)
		if err == nil {
			return nil, nil
		}
		if ctx.Err() != nil {
			// The job ended (deadline, client gone); the worker is not at
			// fault.
			return nil, ctx.Err()
		}
		var se *StatusError
		if errors.As(err, &se) && se.Saturated() && satRetries < c.cfg.SaturationRetries {
			satRetries++
			c.satRetries.Add(1)
			if !sleep(ctx, c.backoff(se.RetryAfter, satRetries)) {
				return nil, ctx.Err()
			}
			continue
		}
		if se != nil && se.Status >= 400 && se.Status < 500 && !se.Saturated() {
			// The job itself is bad or failed deterministically (a security
			// halt is a 422): every node would answer the same.
			return nil, err
		}
		if isIntegrityError(err) {
			c.corruptBodies.Add(1)
		}
		c.reg.ReportFailure(node, err, transportFailure(err))
		c.failovers.Add(1)
		redispatch++
		if redispatch > c.cfg.RetryBudget {
			cause := fmt.Errorf("%w: %s failed after %d dispatches: %v", ErrDispatchExhausted, what, redispatch, err)
			if len(c.reg.Up()) == 0 {
				return nil, c.fallback(cause, local)
			}
			return nil, cause
		}
	}
}

// fallback resolves a dispatch that ran out of cluster: degraded-mode
// local execution when allowed — an answer late beats an error during a
// full outage — the typed exhaustion error otherwise.
func (c *Coordinator) fallback(cause error, local func() error) error {
	if c.cfg.DisableLocalFallback {
		if errors.Is(cause, ErrDispatchExhausted) {
			return cause
		}
		return fmt.Errorf("%w: %v", ErrDispatchExhausted, cause)
	}
	c.localRuns.Add(1)
	return local()
}

// isIntegrityError reports whether err is a digest-mismatch discard.
func isIntegrityError(err error) bool {
	var ie *IntegrityError
	return errors.As(err, &ie)
}

// transportFailure reports whether err looks like the worker process is
// gone (connection-level failure) rather than an HTTP-level complaint —
// gone workers are marked down immediately instead of waiting out the
// probe threshold. A digest mismatch is neither: the worker answered,
// the bytes were wrong, so it counts toward the threshold like any
// HTTP-level failure instead of costing the node its traffic at once.
func transportFailure(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return false
	}
	return !isIntegrityError(err)
}

// backoff is the saturation wait: the worker's Retry-After hint when it
// sent one (else a doubling ramp from 50 ms), capped by MaxRetryWait,
// plus up to 25% jitter so colliding cells do not re-arrive in
// lockstep.
func (c *Coordinator) backoff(hint time.Duration, attempt int) time.Duration {
	wait := hint
	if wait <= 0 {
		// Clamp the exponent: the ramp is capped by MaxRetryWait anyway,
		// and an unchecked shift overflows time.Duration into zero-length
		// waits (a hot spin) once attempt grows past ~40 — loadtest runs
		// with SaturationRetries in the thousands.
		wait = 50 * time.Millisecond << min(attempt-1, 6)
	}
	if wait > c.cfg.MaxRetryWait {
		wait = c.cfg.MaxRetryWait
	}
	return wait + time.Duration(rand.Float64()*0.25*float64(wait))
}

// sleep waits d or until ctx is done, reporting whether the wait
// completed.
func sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// --- cluster routes ---

// handleJoin serves POST /v1/cluster/join: a worker announcing itself.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL string `json:"url"`
	}
	if !server.DecodeJSON(w, r, &req) {
		return
	}
	u, err := url.Parse(req.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("join: want an http(s) base URL, got %q", req.URL))
		return
	}
	c.joins.Add(1)
	added := c.reg.Add(req.URL)
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"added":   added,
		"workers": c.reg.Workers(),
	})
}

// handleTopology serves GET /v1/cluster: the ring membership and each
// worker's state.
func (c *Coordinator) handleTopology(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"workers": c.reg.Workers(),
	})
}

// --- error shaping ---

// errorEvent builds a coordinator-origin terminal error event.
func errorEvent(code string, status int, err error) server.Event {
	return server.Event{Event: "error", Error: err.Error(), Code: code, Status: status}
}

// jobErrEvent classifies a failed dispatch or fan-out: context errors
// keep their single-node codes, upstream StatusErrors keep their
// statuses, the rest is a bad gateway — some part of the cluster failed
// this job.
func jobErrEvent(err error) server.Event {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return errorEvent("timeout", http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		return errorEvent("canceled", http.StatusServiceUnavailable, err)
	}
	var se *StatusError
	if errors.As(err, &se) {
		return errorEvent("upstream", se.Status, err)
	}
	return errorEvent("unavailable", http.StatusBadGateway, err)
}

// statusForCode maps a relayed worker error code to the HTTP status a
// plain response should carry: the worker's status travels in its HTTP
// response, not in the stream event, so the coordinator re-derives it.
func statusForCode(code string) int {
	switch code {
	case "bad_request":
		return http.StatusBadRequest
	case "security":
		return http.StatusUnprocessableEntity
	case "timeout":
		return http.StatusGatewayTimeout
	case "canceled", "unavailable":
		return http.StatusServiceUnavailable
	case "upstream":
		return http.StatusBadGateway
	default:
		return http.StatusInternalServerError
	}
}
