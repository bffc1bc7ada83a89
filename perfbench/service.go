package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"ctrpred/internal/cluster"
	"ctrpred/internal/experiments"
	"ctrpred/internal/server"
	"ctrpred/internal/sim"
	"ctrpred/internal/stats"
)

// Service traffic. Its shape is an assumption, not measured traffic: the
// repository has no request log to draw on. Three in four requests repeat
// one of the warmed configurations (cache hits, the reads); one in four
// is a new job that must simulate (the writes), and one miss in five is a
// /v1/experiments job, the rest /v1/sim runs. cmd/loadtest's cold and warm
// phases are the only other traffic the repository drives, all misses and
// all hits respectively. A /v1/sim miss runs 200k instructions, about
// 25 ms of one core of a 2-vCPU virtual machine; the latency limit is
// twenty of those.
const (
	serviceLimit   = 500 * time.Millisecond // latency limit on the tail
	svcInstr       = 200_000
	svcFootprint   = "256K"
	svcExpInstr    = 7_500
	missEvery      = 4   // one request in four must simulate
	expEvery       = 5   // one miss in five is an experiment job
	checkEvery     = 16  // one ladder miss in this many is checked in-process
	calMisses      = 20  // misses the calibration sends, one at a time
	closedReqs     = 400 // requests of the closed-loop capacity measurement
	hitSims        = 16
	hitExperiments = 4
	setupReps      = 9
	keepPace       = 0.9 // achieved ÷ offered rate a step must reach
)

// The open-loop ladder alternates two kinds of step through the window.
// The reference step runs at a fixed refRate for refShare of the window,
// split into one chunk before each climbing step: lat_p50_ms, lat_tail_ms
// and the service's sim_instrs_per_s are read there. Its rate is fixed so
// that two versions of the program meet the same offered load, and low —
// a fifth or less of the capacity measured on a 2-vCPU virtual machine —
// so that it measures service time rather than queueing. Split into
// chunks it samples a host whose speed swings by a quarter in phases of a
// few seconds across the whole window, not in one phase. At a 25 s window
// its 300 requests put the tail at p96.7.
//
// The climbing steps are a staircase around the knee, where Poisson
// arrivals start to outrun the cluster. It starts at climbStart of the
// closed-loop capacity measured in the same run and rises by climbFirst
// after each step that meets the limit until one misses it; from that
// first miss on it rises by climbStep after a pass and falls by it after
// a miss, so its later steps probe the knee at different moments and
// their median rate averages the host's phases.
const (
	refRate    = 30.0
	refShare   = 0.4
	climbSteps = 12
	climbStart = 0.8
	climbFirst = 1.2
	climbStep  = 1.06
)

var svcSchemes = []string{"baseline", "seqcache:4K", "pred-regular", "pred-context"}

// svcRequest is one generated request body.
type svcRequest struct {
	path string
	body []byte
	sim  *server.SimRequest
	exp  *server.ExperimentRequest
	miss bool
	// sample marks a miss whose reply is checked against the library.
	sample bool
}

func simReq(i int, seed uint64) svcRequest {
	r := &server.SimRequest{Bench: sweepKernels[i%len(sweepKernels)], Scheme: svcSchemes[i%len(svcSchemes)],
		Instructions: svcInstr, Footprint: svcFootprint, Seed: seed}
	b, _ := json.Marshal(r) // plain struct: cannot fail
	return svcRequest{path: "/v1/sim", body: b, sim: r}
}

func expReq(i int, seed uint64) svcRequest {
	r := &server.ExperimentRequest{ID: "fig7", Benchmarks: []string{sweepKernels[i%len(sweepKernels)]},
		Instructions: svcExpInstr, Footprint: svcFootprint, Seed: seed}
	b, _ := json.Marshal(r) // plain struct: cannot fail
	return svcRequest{path: "/v1/experiments", body: b, exp: r}
}

// missReq is the k-th miss of a phase: every kernel × scheme in turn,
// with an experiment job in place of every expEvery-th, each on a seed of
// its own so that it must simulate.
func missReq(k int, seed uint64) svcRequest {
	var r svcRequest
	if k%expEvery == expEvery-1 {
		r = expReq(k/expEvery, seed)
	} else {
		r = simReq(k-k/expEvery, seed)
	}
	r.miss, r.sample = true, k%checkEvery == 0
	return r
}

// missSeed is the first miss seed of a phase: past every derived seed,
// and 10k apart per phase, so no two requests of a run share one.
func missSeed(seed, phase uint64) uint64 {
	return 10_000_000 + seed%1000*100_000 + phase*10_000
}

// hitSet is the repeated configurations: the cache's reads.
func hitSet(seed uint64) []svcRequest {
	var rs []svcRequest
	for i := 0; i < hitSims; i++ {
		rs = append(rs, simReq(i, seed))
	}
	for i := 0; i < hitExperiments; i++ {
		rs = append(rs, expReq(i+3, seed))
	}
	return rs
}

// testCluster is a coordinator fronting two one-slot workers, all
// in-process on loopback listeners.
type testCluster struct {
	servers []*server.Server
	workers []*httptest.Server
	coord   *cluster.Coordinator
	front   *httptest.Server
}

func bootCluster() *testCluster {
	c := &testCluster{}
	var urls []string
	for i := 0; i < 2; i++ {
		s := server.New(server.Config{Workers: 1, DrainTimeout: 2 * time.Second})
		hs := httptest.NewServer(s)
		c.servers = append(c.servers, s)
		c.workers = append(c.workers, hs)
		urls = append(urls, hs.URL)
	}
	c.coord = cluster.New(cluster.Config{Workers: urls})
	c.front = httptest.NewServer(c.coord)
	return c
}

func (c *testCluster) close() {
	c.front.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c.coord.Shutdown(ctx)
	for i := range c.workers {
		c.workers[i].Close()
		c.servers[i].Shutdown(ctx)
	}
}

// jobSeconds is the workers' summed job run time so far, from their
// metrics (mean job time × jobs finished or failed).
func (c *testCluster) jobSeconds() float64 {
	var t float64
	for _, s := range c.servers {
		snap := s.Snapshot()
		var meanMS float64
		for _, v := range snap.Values {
			if v.Name == "mean_job_ms" {
				meanMS = v.Value
			}
		}
		fin, _ := snap.CounterValue("finished")
		failed, _ := snap.CounterValue("failed")
		t += meanMS / 1e3 * float64(fin+failed)
	}
	return t
}

// reply is one request's client-side view.
type reply struct {
	status int
	cache  string
	ttfb   time.Duration
	body   []byte
	err    error
}

func post(ctx context.Context, hc *http.Client, base string, r svcRequest) reply {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return reply{err: err}
	}
	resp, err := hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	rep := reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), ttfb: time.Since(t0)}
	rep.body, rep.err = io.ReadAll(resp.Body)
	if rep.err == nil && rep.status != http.StatusOK {
		rep.err = fmt.Errorf("%s: status %d: %s", r.path, rep.status, bytes.TrimSpace(rep.body))
	}
	return rep
}

// warm boots a cluster and fills its cache with the hit set, nproc
// requests at a time.
func warm(ctx context.Context, hc *http.Client, hits []svcRequest) (*testCluster, error) {
	c := bootCluster()
	sem := make(chan struct{}, nproc())
	var wg sync.WaitGroup
	errs := make([]error, len(hits))
	for i, r := range hits {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = post(ctx, hc, c.front.URL, r).err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			c.close()
			return nil, fmt.Errorf("warm: %w", err)
		}
	}
	return c, nil
}

// stepResult is one rate step's requests and replies.
type stepResult struct {
	rate    float64
	reqs    []svcRequest
	replies []reply
	load    loadResult
	// bad marks replies that arrived but differ from the library's.
	bad    []bool
	passed bool
}

// serial sends each request once, one at a time, and returns them as a
// step so that their replies are checked too.
func serial(ctx context.Context, hc *http.Client, base string, reqs []svcRequest) stepResult {
	st := stepResult{reqs: reqs, replies: make([]reply, len(reqs)),
		load: loadResult{latency: make([]time.Duration, len(reqs)), lag: make([]time.Duration, len(reqs))}}
	for i, r := range reqs {
		t0 := time.Now()
		st.replies[i] = post(ctx, hc, base, r)
		st.load.latency[i] = time.Since(t0)
	}
	return st
}

// closedLoop sends reqs over conns connections, each sending its next
// request as soon as its last reply is in, and returns the replies as a
// step. Requests per second of its wall time is the most the cluster
// completes at the mix with conns connections: its capacity.
func closedLoop(ctx context.Context, hc *http.Client, base string, reqs []svcRequest, conns int) stepResult {
	dues := make([]time.Duration, len(reqs)) // all due at once
	st := stepResult{reqs: reqs, replies: make([]reply, len(reqs)), bad: make([]bool, len(reqs))}
	st.load = openLoop(ctx, conns, dues, func(ctx context.Context, i int) {
		st.replies[i] = post(ctx, hc, base, reqs[i])
	})
	return st
}

// mix is n requests in the service's proportions: every missEvery-th a
// new miss numbered from seed0, the rest hits drawn from hits.
func mix(n int, hits []svcRequest, rng *rand.Rand, seed0 uint64, misses *int) []svcRequest {
	reqs := make([]svcRequest, n)
	for j := range reqs {
		if j%missEvery == missEvery-1 {
			reqs[j] = missReq(*misses, seed0+uint64(*misses))
			*misses++
		} else {
			reqs[j] = hits[rng.IntN(len(hits))]
		}
	}
	return reqs
}

// ladder runs the staircase of climbing steps with a chunk of the
// reference step before each. It returns the chunks merged into one
// reference step, followed by the climbing steps in order.
func ladder(ctx context.Context, tr *tracer, hc *http.Client, base string, seed, phase uint64, hits []svcRequest, window time.Duration, capacity float64) []stepResult {
	seed0, misses := missSeed(seed, phase), 0
	runStep := func(si int, rate float64, stepWin time.Duration) stepResult {
		n := max(1, int(rate*stepWin.Seconds()))
		rng := rand.New(rand.NewPCG(seed, phase*100+uint64(si)))
		st := stepResult{rate: rate, reqs: mix(n, hits, rng, seed0, &misses), replies: make([]reply, n), bad: make([]bool, n)}
		dues := schedule(seed, phase*100+uint64(si)+50, n, stepWin)
		id := tr.begin("loadgen.step", 0)
		st.load = openLoop(ctx, nproc(), dues, func(ctx context.Context, i int) {
			rid := tr.begin("http.POST"+st.reqs[i].path, id)
			st.replies[i] = post(ctx, hc, base, st.reqs[i])
			tr.end(rid, 1)
		})
		tr.end(id, int64(n))
		st.passed = meetsLimit(st)
		return st
	}
	refWin := time.Duration(refShare * float64(window) / climbSteps)
	climbWin := time.Duration((1 - refShare) * float64(window) / climbSteps)
	var chunks, climb []stepResult
	rate, missed := climbStart*capacity, false
	for si := 0; si < climbSteps; si++ {
		// Collect the last step's garbage now, not during the chunk.
		runtime.GC()
		chunks = append(chunks, runStep(2*si, refRate, refWin))
		st := runStep(2*si+1, rate, climbWin)
		climb = append(climb, st)
		missed = missed || !st.passed
		switch {
		case !missed:
			rate *= climbFirst
		case st.passed:
			rate *= climbStep
		default:
			rate /= climbStep
		}
	}
	return append([]stepResult{mergeSteps(refRate, chunks)}, climb...)
}

// mergeSteps joins the chunks of one step into one.
func mergeSteps(rate float64, chunks []stepResult) stepResult {
	m := stepResult{rate: rate, passed: true}
	for _, c := range chunks {
		m.reqs = append(m.reqs, c.reqs...)
		m.replies = append(m.replies, c.replies...)
		m.bad = append(m.bad, c.bad...)
		m.load.latency = append(m.load.latency, c.load.latency...)
		m.load.lag = append(m.load.lag, c.load.lag...)
		m.load.backlogMax = max(m.load.backlogMax, c.load.backlogMax)
		m.load.backlogEnd = max(m.load.backlogEnd, c.load.backlogEnd)
		m.load.wall += c.load.wall
		m.passed = m.passed && c.passed
	}
	return m
}

// kneeRate is the staircase's estimate of the highest rate the cluster
// sustains within the limit: the median offered rate of its steps after
// the first that missed the limit, which overshot the knee by the
// climbFirst stride (that step's own rate if it was the last). If no step
// missed, the knee lies above the staircase and its highest achieved rate
// is the estimate.
func kneeRate(climb []stepResult) float64 {
	for i, st := range climb {
		if !st.passed {
			var rates []float64
			for _, k := range climb[min(i+1, len(climb)-1):] {
				rates = append(rates, k.rate)
			}
			return median(rates)
		}
	}
	best := 0.0
	for _, st := range climb {
		best = max(best, st.achieved())
	}
	return best
}

// meetsLimit reports whether a step's requests all succeeded, its tail
// is within the limit and it kept pace: requests ÷ the time to its last
// completion is at least keepPace of the offered rate. A backlog that
// grows through the step stretches that time by the growth; one that
// only fluctuates stretches it by about one request's latency.
func meetsLimit(st stepResult) bool {
	for _, rep := range st.replies {
		if rep.err != nil {
			return false
		}
	}
	tv, _, ok := tail(latenciesMS(st))
	return ok && tv <= float64(serviceLimit)/1e6 && st.achieved() >= keepPace*st.rate
}

// achieved is the step's requests per second up to its last completion.
func (st stepResult) achieved() float64 {
	return float64(len(st.reqs)) / st.load.wall.Seconds()
}

// inFlightS is each request's time from its send to its completion, in
// seconds: its latency less the wait in the generator's backlog.
func inFlightS(st stepResult) []float64 {
	s := make([]float64, len(st.load.latency))
	for i := range s {
		s[i] = (st.load.latency[i] - st.load.lag[i]).Seconds()
	}
	return s
}

func latenciesMS(st stepResult) []float64 {
	ms := make([]float64, len(st.load.latency))
	for i, d := range st.load.latency {
		ms[i] = float64(d) / 1e6
	}
	return ms
}

// ladderStats are the end-to-end numbers of one ladder.
type ladderStats struct {
	refLats         []float64 // ms, every request of the reference step
	maxRate         float64
	hitLat, missLat []float64
	ttfb            []float64
	hits, total     int
	lags            []float64 // ms, the reference step's
	backlogMax      int       // the reference step's
	missRates       []float64 // the reference step's simulated instructions per in-flight second, per miss sim
}

// summarize reads a ladder's steps: the reference step, then the
// climbing steps.
func summarize(steps []stepResult, log io.Writer) ladderStats {
	var ls ladderStats
	ref, climb := steps[0], steps[1:]
	for si, st := range steps {
		lats, inFlight := latenciesMS(st), inFlightS(st)
		for i, rep := range st.replies {
			ls.total++
			if rep.err != nil {
				continue
			}
			ls.ttfb = append(ls.ttfb, float64(rep.ttfb)/1e6)
			if rep.cache == "hit" {
				ls.hits++
				ls.hitLat = append(ls.hitLat, lats[i])
			} else {
				ls.missLat = append(ls.missLat, lats[i])
			}
			if si == 0 && st.reqs[i].miss && st.reqs[i].sim != nil {
				// In flight from the send, not from the due time: the
				// backlog wait is the load generator's, not the server's.
				if n, err := snapshotInstructions(rep.body); err == nil {
					ls.missRates = append(ls.missRates, n/inFlight[i])
				}
			}
		}
		name := "reference"
		if si > 0 {
			name = fmt.Sprintf("climb %d", si)
		}
		tv, pct, _ := tail(lats)
		fmt.Fprintf(log, "%-9s %7.1f/s: %d requests, p50 %.3f ms, p%.1f %.3f ms, backlog max %d end %d, achieved %.3f/s, meets limit: %v\n",
			name, st.rate, len(st.reqs), median(lats), pct, tv, st.load.backlogMax, st.load.backlogEnd, st.achieved(), st.passed)
	}
	ls.maxRate = kneeRate(climb)
	ls.refLats = latenciesMS(ref)
	for _, d := range ref.load.lag {
		ls.lags = append(ls.lags, float64(d)/1e6)
	}
	ls.backlogMax = ref.load.backlogMax
	return ls
}

// goodput is the replies that arrived, matched the library and met the
// limit, per second of ladder wall time.
func goodput(steps []stepResult) float64 {
	good := 0
	var wall time.Duration
	for _, st := range steps {
		wall += st.load.wall
		for i, rep := range st.replies {
			if rep.err == nil && !st.bad[i] && st.load.latency[i] <= serviceLimit {
				good++
			}
		}
	}
	return float64(good) / wall.Seconds()
}

// snapshotInstructions reads cpu.instructions from a /v1/sim body.
func snapshotInstructions(body []byte) (float64, error) {
	var s stats.Snapshot
	if err := json.Unmarshal(body, &s); err != nil {
		return 0, err
	}
	cpu := s.Lookup("cpu")
	if cpu == nil {
		return 0, fmt.Errorf("no cpu node")
	}
	n, ok := cpu.CounterValue("instructions")
	if !ok {
		return 0, fmt.Errorf("no instructions counter")
	}
	return float64(n), nil
}

// simValues reads the run's ipc and pred_rate values from a /v1/sim body.
func simValues(body []byte) (ipc, pred float64, err error) {
	var s stats.Snapshot
	if err := json.Unmarshal(body, &s); err != nil {
		return 0, 0, err
	}
	for _, v := range s.Values {
		switch v.Name {
		case "ipc":
			ipc = v.Value
		case "pred_rate":
			pred = v.Value
		}
	}
	return ipc, pred, nil
}

func runService(ctx context.Context, seed uint64, window time.Duration, traced bool, log io.Writer, o *outcome) (*tracer, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc()}}
	defer hc.CloseIdleConnections()

	// Set-up: boot the workers and coordinator and warm the cache, once
	// per repetition, each with its own hit set so every repetition
	// simulates the same amount. The last cluster serves the ladder.
	var reps []float64
	var c *testCluster
	var hits []svcRequest
	for rep := 0; rep < setupReps; rep++ {
		if c != nil {
			c.close()
		}
		hits = hitSet(derivedSeed(seed, rep))
		id := tr.begin("setup", 0)
		t0 := time.Now()
		var err error
		c, err = warm(ctx, hc, hits)
		reps = append(reps, time.Since(t0).Seconds())
		tr.end(id, 1)
		if err != nil {
			return tr, err
		}
	}
	defer c.close()

	// Calibration, untimed. First each hit and calMisses misses one at a
	// time: their configurations are fixed by the seed, so their replies
	// carry the exact simulated values and the digest. Then closed-loop
	// load over nproc connections measures the capacity the climbing rates
	// are fractions of, so its knee falls inside the ladder on any host.
	calReqs := append([]svcRequest(nil), hits...)
	for k := 0; k < calMisses; k++ {
		r := missReq(k, missSeed(seed, 0)+uint64(k))
		r.sample = true
		calReqs = append(calReqs, r)
	}
	calStep := serial(ctx, hc, c.front.URL, calReqs)
	var hitMS, missMS []float64
	for i, d := range calStep.load.latency {
		if calReqs[i].miss {
			missMS = append(missMS, float64(d)/1e6)
		} else {
			hitMS = append(hitMS, float64(d)/1e6)
		}
	}
	misses := 0
	closed := closedLoop(ctx, hc, c.front.URL, mix(closedReqs, hits, rand.New(rand.NewPCG(seed, 3)), missSeed(seed, 3), &misses), nproc())
	capacity := closed.achieved()
	fmt.Fprintf(log, "calibration: one at a time, hit p50 %.3f ms over %d, miss p50 %.3f ms over %d; closed loop over %d connections, %d requests (1 in %d a miss): capacity %.1f requests/s\n",
		median(hitMS), len(hitMS), median(missMS), len(missMS), nproc(), closedReqs, missEvery, capacity)

	var steps, checked []stepResult
	var busy0 float64
	if traced {
		checked = ladder(ctx, nil, hc, c.front.URL, seed, 1, hits, window/2, capacity)
		plain := summarize(checked, log)
		busy0 = c.jobSeconds()
		steps = ladder(ctx, tr, hc, c.front.URL, seed, 2, hits, window/2, capacity)
		a := median(plain.refLats)
		b := median(summarize(steps, io.Discard).refLats)
		o.set("trace.overhead_pct", 100*(b-a)/a)
		fmt.Fprintf(log, "tracing overhead: untraced lat_p50 %.6g ms, traced %.6g ms\n", a, b)
	} else {
		steps = ladder(ctx, nil, hc, c.front.URL, seed, 1, hits, window, capacity)
	}
	ls := summarize(steps, log)

	// Correctness, untimed: every reply is a 200, and every reply to a
	// hit configuration or a sampled miss is byte-identical to the
	// library computing the same request in-process.
	want := make(map[string][]byte)
	var refCells []cellRun
	var encMS []float64
	for _, st := range append(append([]stepResult{calStep, closed}, checked...), steps...) {
		for i, rep := range st.replies {
			r := st.reqs[i]
			o.check(rep.err == nil, "request %s %s: %v", r.path, r.body, rep.err)
			if rep.err != nil || (r.miss && !r.sample) {
				continue
			}
			w, ok := want[string(r.body)]
			if !ok {
				var cell *cellRun
				var enc float64
				var err error
				w, cell, enc, err = inProcess(ctx, tr, r)
				if err != nil {
					return tr, err
				}
				want[string(r.body)] = w
				if cell != nil {
					refCells = append(refCells, *cell)
					encMS = append(encMS, enc)
				}
			}
			same := bytes.Equal(w, rep.body)
			o.check(same, "%s %s: reply differs from the in-process result", r.path, r.body)
			if !same && st.bad != nil {
				st.bad[i] = true
			}
		}
	}

	// Simulated values and digest over the calibration's replies, whose
	// configurations depend on the seed alone.
	var ipcs, preds []float64
	h := sha256.New()
	for i, rep := range calStep.replies {
		h.Write(rep.body)
		r := calStep.reqs[i]
		if r.sim == nil || rep.err != nil {
			continue
		}
		ipc, pred, err := simValues(rep.body)
		if err != nil {
			o.check(false, "decode %s: %v", r.body, err)
			continue
		}
		ipcs = append(ipcs, ipc)
		if r.sim.Scheme == "pred-regular" || r.sim.Scheme == "pred-context" {
			preds = append(preds, pred)
		}
	}
	fmt.Fprintf(log, "simulated-stats digest service: %x over %d calibration replies\n", h.Sum(nil), len(calStep.replies))
	fmt.Fprintf(log, "ipc_gmean exact %.17g  pred_rate_mean exact %.17g over %d sim replies\n", gmean(ipcs), mean(preds), len(ipcs))

	o.set("setup_s", median(reps))
	o.set("sim_instrs_per_s", median(ls.missRates))
	o.set("ipc_gmean", gmean(ipcs))
	o.set("pred_rate_mean", mean(preds))
	o.set("lat_p50_ms", median(ls.refLats))
	tv, pct, ok := tail(ls.refLats)
	if !ok {
		return tr, fmt.Errorf("only %d requests at the reference step; need more than 10 for a tail", len(ls.refLats))
	}
	o.set("lat_tail_ms", tv)
	fmt.Fprintf(log, "lat_p50_ms and lat_tail_ms are at the reference step, %.1f requests/s; lat_tail_ms is p%.2f of %d requests (10 beyond it); latency limit %v\n",
		steps[0].rate, pct, len(ls.refLats), serviceLimit)
	o.set("goodput_rps", goodput(steps))
	o.set("max_rate_rps", ls.maxRate)
	rss, err := peakRSSMB()
	if err != nil {
		return tr, err
	}
	o.set("peak_rss_mb", rss)

	if traced {
		o.set("server.hit_ratio", ratio(float64(ls.hits), float64(ls.total)))
		o.set("server.hit_lat_p50_ms", median(ls.hitLat))
		o.set("server.miss_lat_p50_ms", median(ls.missLat))
		o.set("server.ttfb_ms", median(ls.ttfb))
		o.set("loadgen.lag_p99_ms", quantile(ls.lags, 0.99))
		o.set("loadgen.backlog_max", float64(ls.backlogMax))
		var rejected uint64
		for _, s := range c.servers {
			v, _ := s.Snapshot().CounterValue("rejected")
			rejected += v
		}
		o.set("server.rejected", float64(rejected))
		m, err := scrapeMetrics(ctx, hc, c.front.URL)
		if err != nil {
			return tr, err
		}
		cells := m.Lookup("cells")
		if cells == nil {
			return tr, fmt.Errorf("coordinator /metrics has no cells node")
		}
		sat, _ := cells.CounterValue("saturation_retries")
		fail, _ := cells.CounterValue("failovers")
		peer, _ := cells.CounterValue("peer_hits")
		o.set("cluster.retries", float64(sat+fail))
		o.set("cluster.peer_hits", float64(peer))
		// The simulator layers, as the service's own sim requests use
		// them: counts from the in-process reference runs, host times
		// from replaying one of them.
		probe := simReq(3, derivedSeed(seed, 0)) // mcf, pred-context
		bench, cfg, err := buildSim(*probe.sim)
		if err != nil {
			return tr, err
		}
		// Template builds happen inside the workers; time a few here,
		// on seeds no request used, the way the workers pay for them.
		var tmplMS []float64
		for i := 0; i < 3; i++ {
			k := cellKey{kernel: bench, scheme: cfg.Scheme.Name, seed: 20_000_000 + seed%1000*10 + uint64(i)}
			c := cfg.WithSeed(k.seed)
			first, err := runCell(ctx, tr, 0, k, c)
			if err != nil {
				return tr, err
			}
			again, err := runCell(ctx, tr, 0, k, c)
			if err != nil {
				return tr, err
			}
			tmplMS = append(tmplMS, float64(first.newMachine-again.newMachine)/1e6)
		}
		// Pool utilization: the workers' job time over the traced
		// ladder ÷ (its wall time × run slots).
		var wall time.Duration
		for _, st := range steps {
			wall += st.load.wall
		}
		util := (c.jobSeconds() - busy0) / (wall.Seconds() * float64(len(c.servers)))
		setLayerCounts(o, refCells, util, tmplMS, encMS)
		if err := probeLayers(ctx, tr, bench, cfg, o); err != nil {
			return tr, err
		}
	}
	return tr, nil
}

// buildSim mirrors the server's /v1/sim config resolution for the
// fields the workload sets.
func buildSim(r server.SimRequest) (string, sim.Config, error) {
	sch, err := sim.ParseScheme(r.Scheme)
	if err != nil {
		return "", sim.Config{}, err
	}
	fp, err := sim.ParseSize(r.Footprint)
	if err != nil {
		return "", sim.Config{}, err
	}
	cfg := sim.DefaultConfig(sch).WithFootprint(fp).WithInstrBudget(r.Instructions).WithSeed(r.Seed)
	return r.Bench, cfg, nil
}

// inProcess computes a request's reply body with the library directly.
// Sim requests also return their timed cell.
func inProcess(ctx context.Context, tr *tracer, r svcRequest) ([]byte, *cellRun, float64, error) {
	if r.sim != nil {
		bench, cfg, err := buildSim(*r.sim)
		if err != nil {
			return nil, nil, 0, err
		}
		cell, err := runCell(ctx, tr, 0, cellKey{kernel: bench, scheme: cfg.Scheme.Name, seed: cfg.Seed}, cfg)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("in-process %s: %w", r.body, err)
		}
		id := tr.begin("stats.Snapshot.JSON", 0)
		t0 := time.Now()
		b, err := cell.res.Snapshot().JSON()
		enc := float64(time.Since(t0)) / 1e6
		tr.end(id, 1)
		return b, &cell, enc, err
	}
	e := r.exp
	opt := experiments.DefaultOptions()
	opt.Benchmarks = e.Benchmarks
	opt.Scale.Instructions = e.Instructions
	fp, err := sim.ParseSize(e.Footprint)
	if err != nil {
		return nil, nil, 0, err
	}
	opt.Scale.Footprint = fp
	opt.Seed = e.Seed
	opt.Workers = 1
	res, err := experiments.ByID(ctx, e.ID, opt)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("in-process %s: %w", r.body, err)
	}
	b, err := res.Snapshot().JSON()
	return b, nil, 0, err
}

func scrapeMetrics(ctx context.Context, hc *http.Client, base string) (*stats.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	var s stats.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return &s, nil
}
