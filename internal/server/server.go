// Package server exposes the simulator as a long-lived HTTP/JSON job
// service — simulation-as-a-service over the same library surface the
// CLIs drive.
//
// Requests land on a bounded runpool-backed queue (backpressure is a
// 429 with Retry-After, never an unbounded goroutine pile), run under
// per-job context deadlines that cancel at the simulator's existing
// instruction checkpoints, and can stream progress as NDJSON — one JSON
// object per line: queue admission, checkpoint heartbeats, one
// runpool.Update per finished simulation, then the final
// stats.Snapshot. Completed results are stored in a content-addressed
// cache (canonical-config hash → snapshot JSON), so a repeated request
// is served without re-simulating; because a run is fully determined by
// its configuration, a cached body is byte-identical to a fresh one.
//
//	POST /v1/sim            run one simulation (stream with ?stream=1
//	                        or Accept: application/x-ndjson)
//	POST /v1/experiments    regenerate a figure/table over a grid
//	GET  /v1/benchmarks     list workload kernels
//	GET  /v1/experiments    list experiment ids
//	GET  /v1/results/{key}  fetch a result by content address
//	GET  /healthz           liveness/readiness (503 while draining)
//	GET  /metrics           server counters as a stats.Snapshot JSON
//	GET  /debug/pprof/...   runtime profiles (Config.EnablePprof)
//
// Shutdown is graceful: admission stops immediately, running jobs get
// Config.DrainTimeout to finish, then their contexts are cancelled and
// the simulator aborts within one Config.CheckInterval of instructions.
//
// Jobs run on an Executor. New runs them in-process (Local); the
// cluster coordinator is the same Server built around an executor that
// relays them to worker nodes, so both tiers speak one protocol.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ctrpred/internal/cryptoengine"
	"ctrpred/internal/experiments"
	"ctrpred/internal/runpool"
	"ctrpred/internal/secmem"
	"ctrpred/internal/sim"
	"ctrpred/internal/stats"
	"ctrpred/internal/workload"
)

// Config sizes the service. The zero value is usable: one worker per
// CPU, a backlog twice that, a 256-entry result cache, no default job
// deadline, a 5 s drain window, pprof off.
type Config struct {
	// Workers caps concurrently running jobs (<= 0: one per CPU).
	Workers int
	// Backlog caps jobs queued behind the running ones (< 0: none;
	// 0: 2×Workers). A full backlog rejects with 429.
	Backlog int
	// CacheEntries bounds the result cache (0: 256; < 0: disabled).
	CacheEntries int
	// DefaultTimeout bounds jobs whose request carries no timeout
	// (0: unbounded).
	DefaultTimeout time.Duration
	// DrainTimeout is how long Shutdown lets running jobs finish before
	// cancelling their contexts (0: 5 s).
	DrainTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

const (
	defaultCacheEntries = 256
	defaultDrain        = 5 * time.Second
	// heartbeatEvery throttles checkpoint heartbeats on the stream.
	heartbeatEvery = 200 * time.Millisecond
)

// Server is the job service. Create with New, mount as an http.Handler,
// stop with Shutdown.
type Server struct {
	cfg   Config
	exec  Executor
	pool  *runpool.Pool
	cache *ResultCache
	mux   *http.ServeMux
	start time.Time

	// endpoints counts requests per route pattern, exported under the
	// "endpoints" child of /metrics so a load balancer can see which
	// surfaces carry the traffic.
	endpoints endpointCounters

	// jobsCtx parents every job's context; hardStop cancels it when the
	// drain window expires, aborting in-flight simulations at their next
	// instruction checkpoint.
	jobsCtx  context.Context
	hardStop context.CancelFunc

	mu       sync.Mutex
	draining bool

	accepted  atomic.Uint64
	rejected  atomic.Uint64
	finished  atomic.Uint64
	failed    atomic.Uint64
	streamed  atomic.Uint64
	cacheSrvd atomic.Uint64

	// jobDurNS/jobsDone accumulate wall-clock job durations so a 429's
	// Retry-After can be derived from how long jobs actually take here
	// rather than a fixed guess.
	jobDurNS atomic.Int64
	jobsDone atomic.Uint64
}

// New assembles a single node from cfg (see Config for zero-value
// defaults): a Server running every job in-process.
func New(cfg Config) *Server { return NewWithExecutor(cfg, &Local{}) }

// NewWithExecutor assembles a Server whose admitted jobs run on ex.
func NewWithExecutor(cfg Config, ex Executor) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runpool.DefaultWorkers()
	}
	if cfg.Backlog == 0 {
		cfg.Backlog = 2 * cfg.Workers
	}
	if cfg.Backlog < 0 {
		cfg.Backlog = 0
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = defaultCacheEntries
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = defaultDrain
	}
	jobsCtx, hardStop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		exec:     ex,
		pool:     runpool.NewPool(cfg.Workers, cfg.Backlog),
		cache:    NewResultCache(cfg.CacheEntries),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		jobsCtx:  jobsCtx,
		hardStop: hardStop,
	}
	s.Handle("POST /v1/sim", "sim", s.handleSim)
	s.Handle("POST /v1/experiments", "experiments", s.handleExperiment)
	s.Handle("GET /v1/benchmarks", "benchmarks", s.handleBenchmarks)
	s.Handle("GET /v1/experiments", "experiment_list", s.handleExperimentList)
	s.Handle("GET /v1/results/{key}", "results", s.handleResult)
	s.Handle("GET /healthz", "healthz", s.handleHealthz)
	s.Handle("GET /metrics", "metrics", s.handleMetrics)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Handle mounts a route, counted under name in the /metrics
// "endpoints" child.
func (s *Server) Handle(pattern, name string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.endpoints.counted(name, h))
}

// Shutdown stops admission, waits up to Config.DrainTimeout for running
// jobs to finish on their own, then cancels every job context — the
// simulator aborts within one CheckInterval — and waits for the drain to
// complete or ctx to expire. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	drainCtx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	if err := s.pool.Shutdown(drainCtx); err == nil {
		s.hardStop()
		return nil
	}
	// Grace expired: cut the jobs loose and wait for the checkpoints to
	// observe it.
	s.hardStop()
	return s.pool.Shutdown(ctx)
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// UpdateWire is runpool.Update in wire form: the error flattened to a
// string so it survives JSON, the duration in milliseconds.
type UpdateWire struct {
	Index     int     `json:"index"`
	Label     string  `json:"label"`
	Error     string  `json:"error,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	Done      int     `json:"done"`
	Total     int     `json:"total"`
}

// UpdateEvent is the stream event announcing one finished simulation.
func UpdateEvent(u runpool.Update) Event {
	w := &UpdateWire{
		Index: u.Index, Label: u.Label,
		ElapsedMS: float64(u.Elapsed) / float64(time.Millisecond),
		Done:      u.Done, Total: u.Total,
	}
	if u.Err != nil {
		w.Error = u.Err.Error()
	}
	return Event{Event: "update", Update: w}
}

// Event is one NDJSON stream line. Event is "accepted", "progress",
// "update", "result" or "error"; "result" and "error" are terminal.
type Event struct {
	Event string `json:"event"`
	// Key is the result's content address (accepted/result).
	Key string `json:"key,omitempty"`
	// Cached marks a result served from the cache without simulating.
	Cached bool `json:"cached,omitempty"`
	// Queue is the backlog depth observed at admission.
	Queue int `json:"queue,omitempty"`
	// Instructions is the committed-instruction count of a heartbeat.
	Instructions uint64 `json:"instructions,omitempty"`
	// Update is one finished simulation of the job's grid.
	Update *UpdateWire `json:"update,omitempty"`
	// Snapshot is the final metrics tree (also present, when available,
	// on a security-halt error so the partial run is not lost).
	Snapshot json.RawMessage `json:"snapshot,omitempty"`
	Error    string          `json:"error,omitempty"`
	// Code classifies an error: bad_request, security, self_check,
	// timeout, canceled, panic, internal.
	Code string `json:"code,omitempty"`

	// Status is the HTTP status a non-streaming response should carry
	// (not part of the wire form).
	Status int `json:"-"`
	// Compact marks a result whose Snapshot is the compacted stream copy
	// of the body rather than its canonical bytes (a relayed stream whose
	// origin could not be asked for them): it is streamed but not cached.
	// Not part of the wire form.
	Compact bool `json:"-"`
	// Digest is the Snapshot's BodyDigest when the producer already
	// verified it (a relayed worker body), so caching it does not hash
	// the bytes again; "" when unknown. Not part of the wire form.
	Digest string `json:"-"`
}

// classify maps a job error to a stream code and HTTP status.
func classify(err error) (code string, status int) {
	var serr *secmem.SecurityError
	var perr *runpool.PanicError
	switch {
	case errors.As(err, &serr):
		if serr.Kind == secmem.KindSelfCheck {
			return "self_check", http.StatusInternalServerError
		}
		// Tampering detected under the halt policy: the simulation did
		// its job; the input memory was hostile.
		return "security", http.StatusUnprocessableEntity
	case errors.As(err, &perr):
		return "panic", http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout", http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return "canceled", http.StatusServiceUnavailable
	default:
		return "internal", http.StatusInternalServerError
	}
}

// buildStatus maps a request-build error to its HTTP status: a
// well-formed request naming an unknown engine model is semantically
// unprocessable (422), everything else is a plain bad request (400).
func buildStatus(err error) int {
	if errors.Is(err, cryptoengine.ErrUnknownEngine) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

func errEvent(err error) Event {
	code, status := classify(err)
	return Event{Event: "error", Error: err.Error(), Code: code, Status: status}
}

// handleSim serves POST /v1/sim.
func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	bench, cfg, err := req.buildSim()
	if err != nil {
		WriteError(w, buildStatus(err), err)
		return
	}
	timeout, err := parseTimeout(req.Timeout, s.cfg.DefaultTimeout)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	job := SimJob{Req: req, Bench: bench, Config: cfg, Key: sim.Fingerprint(bench, cfg), Stream: wantsStream(r)}
	s.dispatch(w, r, dispatchSpec{
		key: job.Key, label: fmt.Sprintf("sim %s/%s %s", bench, cfg.Scheme.Name, job.Key[:12]),
		noCache: req.NoCache, stream: job.Stream, timeout: timeout,
		run: func(ctx context.Context, emit func(Event)) { s.exec.RunSim(ctx, job, emit) },
	})
}

// handleExperiment serves POST /v1/experiments.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	var req ExperimentRequest
	if !DecodeJSON(w, r, &req) {
		return
	}
	job, err := NewExperimentJob(req, s.cfg.Workers)
	if err != nil {
		WriteError(w, buildStatus(err), err)
		return
	}
	timeout, err := parseTimeout(req.Timeout, s.cfg.DefaultTimeout)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	job.Stream = wantsStream(r)
	s.dispatch(w, r, dispatchSpec{
		key: job.Key, label: fmt.Sprintf("exp %s %s", req.ID, job.Key[:12]),
		noCache: req.NoCache, stream: job.Stream, timeout: timeout,
		run: func(ctx context.Context, emit func(Event)) { s.exec.RunExperiment(ctx, job, emit) },
	})
}

type dispatchSpec struct {
	key     string
	label   string
	noCache bool
	stream  bool
	timeout time.Duration
	run     func(ctx context.Context, emit func(Event))
}

// dispatch implements the shared request lifecycle: cache probe,
// admission, execution, and response shaping for both the streaming and
// the plain mode.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, spec dispatchSpec) {
	if !spec.noCache {
		if body, digest, ok := s.cache.Get(spec.key); ok {
			s.cacheSrvd.Add(1)
			if spec.stream {
				sw := newStreamWriter(w)
				sw.write(Event{Event: "accepted", Key: spec.key, Cached: true})
				sw.write(Event{Event: "result", Key: spec.key, Cached: true, Snapshot: body})
				return
			}
			writeResult(w, spec.key, "hit", body, digest)
			return
		}
	}

	if s.isDraining() {
		WriteError(w, http.StatusServiceUnavailable, errors.New("server draining"))
		return
	}

	// The job's context: cancelled by client disconnect, by the request
	// deadline, or — after the drain window — by server shutdown.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	unhook := context.AfterFunc(s.jobsCtx, cancel)
	defer unhook()
	if spec.timeout > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, spec.timeout)
		defer tcancel()
	}

	events := make(chan Event, 128)
	emit := func(ev Event) { events <- ev }
	// Heartbeats and updates must never wedge a worker behind a stalled
	// consumer; terminal events use the blocking emit (the handler always
	// drains to close).
	emitOpt := func(ev Event) {
		select {
		case events <- ev:
		default:
		}
	}
	job := func() {
		defer close(events)
		start := time.Now()
		defer func() {
			s.jobDurNS.Add(int64(time.Since(start)))
			s.jobsDone.Add(1)
		}()
		spec.run(ctx, func(ev Event) {
			if ev.Event == "result" || ev.Event == "error" {
				emit(ev)
			} else {
				emitOpt(ev)
			}
		})
	}

	ps := s.pool.Stats()
	queueDepth := ps.Pending
	if err := s.pool.TrySubmit(spec.label, job); err != nil {
		s.rejected.Add(1)
		switch {
		case errors.Is(err, runpool.ErrPoolSaturated):
			ra := retryAfterSeconds(ps, s.meanJobLatency())
			w.Header().Set("Retry-After", strconv.Itoa(ra))
			WriteError(w, http.StatusTooManyRequests, errors.New("job queue full; retry later"))
		default:
			WriteError(w, http.StatusServiceUnavailable, err)
		}
		return
	}
	s.accepted.Add(1)

	if spec.stream {
		s.streamed.Add(1)
		sw := newStreamWriter(w)
		sw.write(Event{Event: "accepted", Key: spec.key, Queue: queueDepth})
		for ev := range events {
			if ev.Event == "error" {
				s.failed.Add(1)
			} else if ev.Event == "result" {
				s.finished.Add(1)
				s.keep(spec, ev)
			}
			sw.write(ev)
		}
		return
	}

	var final Event
	for ev := range events {
		if ev.Event == "result" || ev.Event == "error" {
			final = ev
		}
	}
	switch final.Event {
	case "result":
		s.finished.Add(1)
		writeResult(w, spec.key, "miss", final.Snapshot, s.keep(spec, final))
	case "error":
		s.failed.Add(1)
		WriteJSON(w, final.Status, final)
	default:
		WriteError(w, http.StatusInternalServerError, errors.New("job produced no result"))
	}
}

// keep caches a finished job's body, unless the request opted out or
// the body is not canonical, and returns the body's digest.
func (s *Server) keep(spec dispatchSpec, ev Event) string {
	if spec.noCache || ev.Compact {
		if ev.Digest != "" {
			return ev.Digest
		}
		return BodyDigest(ev.Snapshot)
	}
	return s.cache.Put(spec.key, ev.Snapshot, ev.Digest)
}

// writeResult writes a plain result body with the headers every plain
// result carries, whichever path produced it.
func writeResult(w http.ResponseWriter, key, cache string, body []byte, digest string) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Cache", cache)
	h.Set("X-Result-Key", key)
	h.Set(snapshotDigestHeader, digest)
	w.Write(body)
}

// meanJobLatency is the average wall-clock duration of finished jobs,
// or 0 before the first one completes.
func (s *Server) meanJobLatency() time.Duration {
	n := s.jobsDone.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(uint64(s.jobDurNS.Load()) / n)
}

// coldStartWaveLatency stands in for the mean job latency before any
// job has completed: with no signal yet, each wave of queued jobs is
// assumed to take about a second, so a deep backlog still pushes the
// hint out instead of telling every rejected client "retry in 1 s"
// against a queue that cannot possibly drain that fast.
const coldStartWaveLatency = time.Second

// retryAfterSeconds turns pool occupancy and observed mean job latency
// into a Retry-After hint for a saturated 429. A rejected client gets a
// slot once enough jobs ahead of it finish for the backlog to open up;
// jobs drain Workers at a time, so the (running + pending) occupancy
// seen at rejection is Pending/Workers full waves behind the currently
// running one, each taking about one mean latency. Before any job has
// finished there is no latency signal; the waves model still applies,
// with coldStartWaveLatency standing in for the mean, so the hint keeps
// scaling with backlog depth instead of degenerating to a constant.
// 1 s floors the result; 60 s caps it so a pathological backlog never
// tells clients to go away for minutes.
func retryAfterSeconds(ps runpool.PoolStats, mean time.Duration) int {
	if ps.Workers <= 0 {
		return 1
	}
	if mean <= 0 {
		mean = coldStartWaveLatency
	}
	waves := 1 + ps.Pending/ps.Workers
	wait := time.Duration(waves) * mean
	secs := int((wait + time.Second - 1) / time.Second) // ceil
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// handleResult serves GET /v1/results/{key}: the content-addressed
// fetch path of the cache, then of the executor (a coordinator asks its
// workers); an executor hit is cached on the way through.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if body, digest, ok := s.cache.Get(key); ok {
		s.cacheSrvd.Add(1)
		writeResult(w, key, "hit", body, digest)
		return
	}
	if body, digest, ok := s.exec.Lookup(r.Context(), key); ok {
		writeResult(w, key, "peer", body, s.cache.Put(key, body, digest))
		return
	}
	WriteError(w, http.StatusNotFound, fmt.Errorf("no cached result for %q", key))
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	type bench struct {
		Name        string `json:"name"`
		Description string `json:"description"`
		MemoryBound bool   `json:"memory_bound"`
		WriteHeavy  bool   `json:"write_heavy"`
	}
	var out []bench
	for _, n := range workload.Names() {
		sp, _ := workload.Lookup(n)
		out = append(out, bench{Name: sp.Name, Description: sp.Description,
			MemoryBound: sp.MemoryBound, WriteHeavy: sp.WriteHeavy})
	}
	WriteJSON(w, http.StatusOK, out)
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, experiments.IDs())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ps := s.pool.Stats()
	fields := map[string]any{
		"status":  "ok",
		"workers": ps.Workers,
		"running": ps.Running,
		"pending": ps.Pending,
	}
	s.exec.Health(fields)
	code := http.StatusOK
	if s.isDraining() {
		fields["status"] = "draining"
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, fields)
}

// Snapshot exports the server's counters as a metrics tree (the
// /metrics payload): job admission and outcomes at the root, the pool
// and cache as children, then whatever the executor adds.
func (s *Server) Snapshot() *stats.Snapshot {
	n := stats.NewSnapshot("server")
	n.Counter("accepted", s.accepted.Load())
	n.Counter("rejected", s.rejected.Load())
	n.Counter("finished", s.finished.Load())
	n.Counter("failed", s.failed.Load())
	n.Counter("streamed", s.streamed.Load())
	n.Counter("cache_served", s.cacheSrvd.Load())
	n.Value("uptime_seconds", time.Since(s.start).Seconds())
	n.Value("mean_job_ms", float64(s.meanJobLatency())/float64(time.Millisecond))

	ps := s.pool.Stats()
	pn := n.Child("pool")
	pn.Counter("submitted", ps.Submitted)
	pn.Counter("rejected", ps.Rejected)
	pn.Counter("completed", ps.Completed)
	pn.Counter("panics", ps.Panics)
	pn.Counter("workers", uint64(ps.Workers))
	pn.Counter("backlog", uint64(ps.Backlog))
	pn.Counter("pending", uint64(ps.Pending))
	pn.Counter("running", uint64(ps.Running))
	// The gauges a load balancer steers by: how full the execution slots
	// are (running/workers) and how deep the backlog sits behind them
	// (pending/backlog; 0 when no backlog is configured).
	pn.Value("occupancy", ps.Occupancy())
	pn.Value("backlog_depth", backlogDepth(ps))

	cs := s.cache.Stats()
	cn := n.Child("cache")
	cn.Counter("entries", uint64(cs.Entries))
	cn.Counter("capacity", uint64(max(cs.Capacity, 0)))
	cn.Counter("hits", cs.Hits)
	cn.Counter("misses", cs.Misses)
	cn.Counter("evictions", cs.Evictions)

	s.endpoints.addTo(n.Child("endpoints"))
	s.exec.Metrics(n)
	return n
}

// backlogDepth is the fraction of the configured backlog in use, 0 when
// the pool runs without one.
func backlogDepth(ps runpool.PoolStats) float64 {
	if ps.Backlog <= 0 {
		return 0
	}
	return float64(ps.Pending) / float64(ps.Backlog)
}

// endpointCounters counts requests per route, keyed by a short stable
// name so the /metrics tree stays deterministic as routes come and go.
type endpointCounters struct {
	mu     sync.Mutex
	counts map[string]uint64
}

// counted wraps a handler so every invocation increments the named
// endpoint's counter.
func (e *endpointCounters) counted(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e.mu.Lock()
		if e.counts == nil {
			e.counts = make(map[string]uint64)
		}
		e.counts[name]++
		e.mu.Unlock()
		h(w, r)
	}
}

// addTo exports one counter per endpoint (serialization sorts by name).
func (e *endpointCounters) addTo(n *stats.Snapshot) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for name, v := range e.counts {
		n.Counter(name, v)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body, err := s.Snapshot().JSON()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// --- plumbing ---

func wantsStream(r *http.Request) bool {
	if v := r.URL.Query().Get("stream"); v == "1" || v == "true" {
		return true
	}
	for _, accept := range r.Header.Values("Accept") {
		if accept == "application/x-ndjson" || accept == "application/ndjson" {
			return true
		}
	}
	return false
}

// streamWriter emits NDJSON lines, flushing after each so progress
// reaches the client as it happens. Writes to a stalled client get a
// bounded deadline instead of wedging the handler.
type streamWriter struct {
	w      http.ResponseWriter
	rc     *http.ResponseController
	enc    *json.Encoder
	broken bool
}

func newStreamWriter(w http.ResponseWriter) *streamWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	return &streamWriter{w: w, rc: http.NewResponseController(w), enc: json.NewEncoder(w)}
}

func (sw *streamWriter) write(ev Event) {
	if sw.broken {
		return
	}
	sw.rc.SetWriteDeadline(time.Now().Add(30 * time.Second))
	if err := sw.enc.Encode(ev); err != nil {
		sw.broken = true
		return
	}
	sw.rc.Flush()
}

// DecodeJSON strictly decodes a request body into dst, answering 400
// and reporting false when it does not fit.
func DecodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("request body: %w", err))
		return false
	}
	return true
}

// WriteError answers with status and a {"error": ...} body.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// WriteJSON answers with status and v as indented JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
