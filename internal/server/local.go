package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"ctrpred/internal/experiments"
	"ctrpred/internal/runpool"
	"ctrpred/internal/secmem"
	"ctrpred/internal/sha256"
	"ctrpred/internal/sim"
	"ctrpred/internal/stats"
)

// Executor runs the jobs a Server admits. It is the only thing that
// differs between a single node (Local) and a cluster coordinator: the
// Server owns the routes, validation, result cache, admission,
// streaming and response shaping for both.
type Executor interface {
	// RunSim and RunExperiment run one admitted job, emitting progress
	// events and then exactly one terminal event: "error" (with Status
	// set) or "result". A result's Snapshot is the canonical body a
	// plain response carries, unless the event is marked Compact.
	RunSim(ctx context.Context, job SimJob, emit func(Event))
	RunExperiment(ctx context.Context, job ExperimentJob, emit func(Event))
	// Lookup finds a result the Server's own cache lacks (served with
	// X-Cache: peer), with its digest when already verified ("" has the
	// Server hash the body).
	Lookup(ctx context.Context, key string) (body []byte, digest string, ok bool)
	// Health adds fields to the /healthz body; it may set "status".
	Health(fields map[string]any)
	// Metrics adds counters and children to the /metrics tree's root.
	Metrics(root *stats.Snapshot)
}

// SimJob is a validated POST /v1/sim request.
type SimJob struct {
	Req    SimRequest
	Bench  string
	Config sim.Config
	// Key is the result's content address.
	Key string
	// Stream is set when the client asked for NDJSON progress.
	Stream bool
}

// ExperimentJob is a validated POST /v1/experiments request.
type ExperimentJob struct {
	Req     ExperimentRequest
	Options experiments.Options
	Key     string
	Stream  bool
}

// NewExperimentJob validates req and resolves its sweep options and
// content address; maxWorkers caps the grid's internal parallelism.
func NewExperimentJob(req ExperimentRequest, maxWorkers int) (ExperimentJob, error) {
	opt, err := req.buildExperiment(maxWorkers)
	if err != nil {
		return ExperimentJob{}, err
	}
	key, err := req.key(opt)
	if err != nil {
		return ExperimentJob{}, err
	}
	return ExperimentJob{Req: req, Options: opt, Key: key}, nil
}

// Local is the in-process executor: every job runs on this host's
// simulator. New builds a single node around it; a cluster coordinator
// keeps one for degraded mode, when no worker can take a job.
type Local struct {
	simsRun atomic.Uint64
	expsRun atomic.Uint64
}

// RunSim runs one simulation and emits its stream events.
func (l *Local) RunSim(ctx context.Context, job SimJob, emit func(Event)) {
	if err := ctx.Err(); err != nil {
		emit(errEvent(err))
		return
	}
	m, err := sim.NewMachine(job.Bench, job.Config)
	if err != nil {
		ev := errEvent(err)
		ev.Code, ev.Status = "bad_request", http.StatusBadRequest
		emit(ev)
		return
	}
	var lastBeat time.Time
	m.OnProgress(func(committed uint64) {
		if time.Since(lastBeat) >= heartbeatEvery {
			lastBeat = time.Now()
			emit(Event{Event: "progress", Instructions: committed})
		}
	})
	start := time.Now()
	res, runErr := m.RunContext(ctx)
	l.simsRun.Add(1)
	emit(UpdateEvent(runpool.Update{Label: job.Bench + "/" + job.Config.Scheme.Name, Err: runErr, Elapsed: time.Since(start), Done: 1, Total: 1}))
	if runErr != nil {
		ev := errEvent(runErr)
		var serr *secmem.SecurityError
		if errors.As(runErr, &serr) {
			// The partial result up to the halt is still evidence; ship it
			// with the error.
			if body, jerr := res.Snapshot().JSON(); jerr == nil {
				ev.Snapshot = body
			}
		}
		emit(ev)
		return
	}
	body, err := res.Snapshot().JSON()
	if err != nil {
		emit(errEvent(err))
		return
	}
	emit(Event{Event: "result", Key: job.Key, Snapshot: body})
}

// RunExperiment regenerates one figure/table and emits its stream
// events, forwarding every finished grid cell as an update.
func (l *Local) RunExperiment(ctx context.Context, job ExperimentJob, emit func(Event)) {
	if err := ctx.Err(); err != nil {
		emit(errEvent(err))
		return
	}
	opt := job.Options
	opt.Progress = func(u runpool.Update) {
		emit(UpdateEvent(u))
		if u.Err == nil {
			l.simsRun.Add(1)
		}
	}
	res, err := experiments.ByID(ctx, job.Req.ID, opt)
	l.expsRun.Add(1)
	if err != nil {
		emit(errEvent(err))
		return
	}
	body, err := res.Snapshot().JSON()
	if err != nil {
		emit(errEvent(err))
		return
	}
	emit(Event{Event: "result", Key: job.Key, Snapshot: body})
}

// Lookup finds nothing: a single node's results live only in its cache.
func (*Local) Lookup(context.Context, string) ([]byte, string, bool) { return nil, "", false }

// Health adds nothing to the Server's own fields.
func (*Local) Health(map[string]any) {}

// Metrics exports how much simulation this host ran.
func (l *Local) Metrics(root *stats.Snapshot) {
	root.Counter("sims_run", l.simsRun.Load())
	root.Counter("experiments_run", l.expsRun.Load())
}

// snapshotDigestHeader carries the hex SHA-256 of a canonical snapshot
// body on every plain JSON result, so relays (the cluster coordinator)
// can verify the bytes they received are the bytes the origin computed
// and treat a corrupted body as a transport failure instead of an
// answer.
const snapshotDigestHeader = "X-Snapshot-Digest"

// BodyDigest returns the hex SHA-256 of a response body: the value of
// the X-Snapshot-Digest header a server attaches to plain results and
// a relay verifies before trusting them.
func BodyDigest(b []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// SnapshotDigest reads the integrity digest from response headers
// ("" when the origin attached none).
func SnapshotDigest(h http.Header) string { return h.Get(snapshotDigestHeader) }
