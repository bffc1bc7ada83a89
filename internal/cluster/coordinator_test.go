package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ctrpred/internal/experiments"
	"ctrpred/internal/server"
	"ctrpred/internal/testutil"
	"ctrpred/internal/workload"
)

// testGrid is the experiment scale every cluster test runs: small
// enough to finish in seconds, wide enough (three benchmarks) that a
// partitionable sweep actually fans out.
const (
	testInstr = 2_000
	testSeed  = 5
)

var testBenches = []string{"gzip", "mcf", "swim"}

// newWorker boots one real single-node server behind httptest.
func newWorker(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	// Registered before the server cleanups below, so (cleanups being
	// LIFO) the leak check runs after shutdown has reaped everything.
	testutil.VerifyNoLeaks(t)
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 2 * time.Second
	}
	s := server.New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

// newCluster boots n workers and a coordinator over them. Probing is
// disabled so tests are timing-free: dispatch failures alone drive
// mark-downs.
func newCluster(t *testing.T, n int, cfg Config) (*Coordinator, *httptest.Server, []*httptest.Server) {
	t.Helper()
	testutil.VerifyNoLeaks(t)
	workers := make([]*httptest.Server, n)
	for i := range workers {
		_, workers[i] = newWorker(t, server.Config{})
		cfg.Workers = append(cfg.Workers, workers[i].URL)
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	if cfg.MaxRetryWait == 0 {
		cfg.MaxRetryWait = 50 * time.Millisecond
	}
	c := New(cfg)
	ts := httptest.NewServer(c)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})
	return c, ts, workers
}

func expRequest(id string) server.ExperimentRequest {
	return server.ExperimentRequest{
		ID:           id,
		Benchmarks:   testBenches,
		Instructions: testInstr,
		Footprint:    "1M",
		Seed:         testSeed,
		Workers:      2,
	}
}

func postJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// referenceOptions mirrors what the server builds from expRequest, for
// direct library runs.
func referenceOptions() experiments.Options {
	opt := experiments.DefaultOptions()
	opt.Benchmarks = testBenches
	opt.Scale.Instructions = testInstr
	opt.Scale.Footprint = 1 << 20
	opt.Seed = testSeed
	return opt
}

// TestClusterByteIdenticalToSingleNode is the distribution contract
// end to end: a three-worker cluster's experiment responses — snapshot
// JSON and the table rebuilt from it — must match a direct single-node
// library run byte for byte.
func TestClusterByteIdenticalToSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment sweep in -short mode")
	}
	_, ts, _ := newCluster(t, 3, Config{})
	for _, id := range []string{"fig7", "engines"} {
		t.Run(id, func(t *testing.T) {
			full, err := experiments.ByID(context.Background(), id, referenceOptions())
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			wantJSON, err := full.Snapshot().JSON()
			if err != nil {
				t.Fatal(err)
			}

			resp, body := postJSON(t, ts.URL+"/v1/experiments", expRequest(id))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("cluster run: status %d: %s", resp.StatusCode, body)
			}
			if !bytes.Equal(body, wantJSON) {
				t.Errorf("cluster snapshot differs from single-node run:\n--- cluster ---\n%s\n--- single ---\n%s", body, wantJSON)
			}
			// The table rebuilt from the wire body must match the
			// single-node rendering too.
			part, err := experiments.DecodeResultSnapshot(body)
			if err != nil {
				t.Fatal(err)
			}
			merged, err := experiments.MergeParts(id, []experiments.Result{part})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := merged.Table.String(), full.Table.String(); got != want {
				t.Errorf("cluster table differs from single-node run:\n--- cluster ---\n%s\n--- single ---\n%s", got, want)
			}
		})
	}
}

// killableWorker wraps a worker so the test can make it drop every
// connection mid-request from a chosen moment on — an injected crash
// that needs no timing coordination.
type killableWorker struct {
	inner  http.Handler
	dead   atomic.Bool
	served atomic.Uint64
}

func (k *killableWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.dead.Load() && strings.HasPrefix(r.URL.Path, "/v1/") {
		panic(http.ErrAbortHandler) // slam the connection shut
	}
	k.served.Add(1)
	k.inner.ServeHTTP(w, r)
}

// TestClusterSurvivesWorkerKillMidSweep injects a worker death partway
// through a sweep: the first cell the victim serves is its last. The
// coordinator must mark it down, requeue its cells on the survivors,
// and still assemble the byte-identical result.
func TestClusterSurvivesWorkerKillMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment sweep in -short mode")
	}
	sA := server.New(server.Config{Workers: 2, DrainTimeout: 2 * time.Second})
	sB := server.New(server.Config{Workers: 2, DrainTimeout: 2 * time.Second})
	victim := &killableWorker{inner: sB}
	tsA := httptest.NewServer(sA)
	tsB := httptest.NewServer(victim)
	defer tsA.Close()
	defer tsB.Close()

	c := New(Config{
		Workers:       []string{tsA.URL, tsB.URL},
		ProbeInterval: -1,
		MaxRetryWait:  50 * time.Millisecond,
		Fanout:        1, // serialize cells so the kill lands between them
	})
	ts := httptest.NewServer(c)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	}()

	// Warm nothing; kill the victim after its first served request. With
	// three cells over two workers at least one cell lands on each, so
	// whichever cell reaches the victim second meets a dead worker and
	// must requeue.
	go func() {
		for victim.served.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
		victim.dead.Store(true)
	}()

	full, err := experiments.ByID(context.Background(), "fig7", referenceOptions())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	wantJSON, err := full.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/experiments", expRequest("fig7"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster run with killed worker: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, wantJSON) {
		t.Errorf("result after worker kill differs from single-node run:\n--- cluster ---\n%s\n--- single ---\n%s", body, wantJSON)
	}
	// The kill may land after the victim already served every cell the
	// ring gave it (no requeue needed), but if any dispatch failed the
	// registry must have recorded the mark-down.
	snap := c.Snapshot()
	if fo, _ := snap.Lookup("cells").CounterValue("failovers"); fo > 0 {
		found := false
		for _, w := range c.Registry().Workers() {
			if w.URL == normalizeURL(tsB.URL) && w.Down {
				found = true
			}
		}
		if !found {
			t.Error("cells failed over but the dead worker was never marked down")
		}
	}
}

// TestClusterRetriesSaturatedWorker drives a sweep through a one-worker
// cluster whose node has no backlog: most cells meet a 429 and must
// wait out the Retry-After (shrunk by MaxRetryWait) instead of failing.
func TestClusterRetriesSaturatedWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment sweep in -short mode")
	}
	_, tsw := newWorker(t, server.Config{Workers: 1, Backlog: -1})
	c := New(Config{
		Workers:           []string{tsw.URL},
		ProbeInterval:     -1,
		MaxRetryWait:      20 * time.Millisecond,
		SaturationRetries: 1000,
		Fanout:            4, // more in-flight cells than the worker admits
	})
	ts := httptest.NewServer(c)
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	}()

	resp, body := postJSON(t, ts.URL+"/v1/experiments", expRequest("fig7"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("saturated run: status %d: %s", resp.StatusCode, body)
	}
	full, err := experiments.ByID(context.Background(), "fig7", referenceOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := full.Snapshot().JSON()
	if !bytes.Equal(body, wantJSON) {
		t.Error("result under saturation differs from single-node run")
	}
	if n, _ := c.Snapshot().Lookup("cells").CounterValue("saturation_retries"); n == 0 {
		t.Error("a one-slot worker under fanout 4 produced no saturation retries")
	}
}

// TestClusterCacheRouting pins the cooperative-cache behavior: a repeat
// through the same coordinator is a coordinator-cache hit, and a repeat
// through a fresh coordinator (cold local cache) is assembled from the
// workers' warm cell caches without re-simulating.
func TestClusterCacheRouting(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment sweep in -short mode")
	}
	c1, ts1, workers := newCluster(t, 2, Config{})
	req := expRequest("fig7")

	resp, first := postJSON(t, ts1.URL+"/v1/experiments", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: status %d: %s", resp.StatusCode, first)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("cold run X-Cache = %q; want miss", got)
	}
	resp, second := postJSON(t, ts1.URL+"/v1/experiments", req)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("warm repeat X-Cache = %q; want hit", got)
	}
	if !bytes.Equal(first, second) {
		t.Error("cached repeat returned different bytes")
	}
	if n, _ := c1.Snapshot().CounterValue("cache_served"); n == 0 {
		t.Error("warm repeat did not count as cache_served")
	}

	// A fresh coordinator over the same workers: its own cache is cold,
	// so it re-splits — but every cell must come off a worker cache.
	urls := []string{workers[0].URL, workers[1].URL}
	c2 := New(Config{Workers: urls, ProbeInterval: -1, MaxRetryWait: 50 * time.Millisecond})
	ts2 := httptest.NewServer(c2)
	defer ts2.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c2.Shutdown(ctx)
	}()
	resp, third := postJSON(t, ts2.URL+"/v1/experiments", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh-coordinator run: status %d: %s", resp.StatusCode, third)
	}
	if !bytes.Equal(first, third) {
		t.Error("fresh-coordinator rerun returned different bytes")
	}
	snap := c2.Snapshot()
	done, _ := snap.Lookup("cells").CounterValue("completed")
	cached, _ := snap.Lookup("cells").CounterValue("worker_cache_hits")
	if done == 0 || cached != done {
		t.Errorf("fresh-coordinator rerun: %d of %d cells from worker caches; want all", cached, done)
	}
}

// TestClusterSimRelayStreams pins the sim path: a streamed simulation
// through the coordinator produces exactly one accepted line, relays
// the worker's update, ends in a result — and the result matches a
// direct worker run byte for byte.
func TestClusterSimRelayStreams(t *testing.T) {
	_, ts, workers := newCluster(t, 2, Config{})
	simReq := server.SimRequest{
		Bench: "gzip", Scheme: "pred-context",
		Footprint: "1M", Instructions: testInstr, Seed: testSeed,
	}
	body, _ := json.Marshal(simReq)

	readStream := func(url string) []server.Event {
		t.Helper()
		resp, err := http.Post(url+"/v1/sim?stream=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var events []server.Event
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var ev server.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad stream line %q: %v", sc.Text(), err)
			}
			events = append(events, ev)
		}
		return events
	}

	events := readStream(ts.URL)
	if len(events) < 2 {
		t.Fatalf("stream had %d events; want at least accepted+result", len(events))
	}
	accepted := 0
	for _, ev := range events {
		if ev.Event == "accepted" {
			accepted++
		}
	}
	if accepted != 1 {
		t.Errorf("stream carried %d accepted events; want exactly 1 (worker's must be dropped)", accepted)
	}
	final := events[len(events)-1]
	if final.Event != "result" {
		t.Fatalf("terminal event = %+v; want result", final)
	}

	// Relay fidelity: the snapshot on the relayed stream is the same
	// bytes a direct worker stream ends with (the run is cached by now,
	// so the direct stream replays the identical result).
	directStream := readStream(workers[0].URL)
	directFinal := directStream[len(directStream)-1]
	if directFinal.Event != "result" {
		t.Fatalf("direct stream terminal event = %+v; want result", directFinal)
	}
	if !bytes.Equal(final.Snapshot, directFinal.Snapshot) {
		t.Error("relayed stream snapshot differs from a direct worker stream")
	}

	// Plain-mode byte-identity: the coordinator's plain response — here
	// served from the canonical body it cached off the worker — matches
	// a direct worker plain response exactly.
	respC, viaCluster := postJSON(t, ts.URL+"/v1/sim", simReq)
	if respC.StatusCode != http.StatusOK {
		t.Fatalf("cluster plain run: status %d: %s", respC.StatusCode, viaCluster)
	}
	respD, direct := postJSON(t, workers[0].URL+"/v1/sim", simReq)
	if respD.StatusCode != http.StatusOK {
		t.Fatalf("direct run: status %d: %s", respD.StatusCode, direct)
	}
	if !bytes.Equal(viaCluster, direct) {
		t.Error("plain sim via coordinator differs from a direct worker run")
	}
}

// TestClusterJoinAndTopology covers runtime membership: a worker joins
// via the API, shows up in the topology, and receives work.
func TestClusterJoinAndTopology(t *testing.T) {
	c, ts, _ := newCluster(t, 1, Config{})
	_, extra := newWorker(t, server.Config{})

	resp, body := postJSON(t, ts.URL+"/v1/cluster/join", map[string]string{"url": extra.URL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: status %d: %s", resp.StatusCode, body)
	}
	var joined struct {
		Added   bool         `json:"added"`
		Workers []WorkerInfo `json:"workers"`
	}
	if err := json.Unmarshal(body, &joined); err != nil {
		t.Fatal(err)
	}
	if !joined.Added || len(joined.Workers) != 2 {
		t.Fatalf("join reply = %+v; want added=true with 2 workers", joined)
	}
	if got := len(c.Registry().Up()); got != 2 {
		t.Fatalf("registry has %d up workers after join; want 2", got)
	}

	// Bad joins are rejected.
	resp, _ = postJSON(t, ts.URL+"/v1/cluster/join", map[string]string{"url": "not a url"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage join: status %d; want 400", resp.StatusCode)
	}

	topo, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Body.Close()
	var tv struct {
		Workers []WorkerInfo `json:"workers"`
	}
	if err := json.NewDecoder(topo.Body).Decode(&tv); err != nil {
		t.Fatal(err)
	}
	if len(tv.Workers) != 2 {
		t.Fatalf("topology lists %d workers; want 2", len(tv.Workers))
	}
}

// TestClusterResultLookupAcrossNodes: a result computed via the cluster
// is fetchable by content address from the coordinator even after its
// local cache is cold (fresh coordinator), via the peer path.
func TestClusterResultLookup(t *testing.T) {
	_, ts, workers := newCluster(t, 2, Config{})
	simReq := server.SimRequest{
		Bench: "gzip", Scheme: "baseline",
		Footprint: "1M", Instructions: testInstr, Seed: testSeed,
	}
	resp, body := postJSON(t, ts.URL+"/v1/sim", simReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sim: status %d: %s", resp.StatusCode, body)
	}
	key := resp.Header.Get("X-Result-Key")
	if key == "" {
		t.Fatal("sim response carried no X-Result-Key")
	}

	c2 := New(Config{Workers: []string{workers[0].URL, workers[1].URL}, ProbeInterval: -1})
	ts2 := httptest.NewServer(c2)
	defer ts2.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c2.Shutdown(ctx)
	}()
	got, err := http.Get(ts2.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	fetched, _ := io.ReadAll(got.Body)
	got.Body.Close()
	if got.StatusCode != http.StatusOK {
		t.Fatalf("peer lookup: status %d", got.StatusCode)
	}
	if !bytes.Equal(fetched, body) {
		t.Error("peer-fetched result differs from the original response")
	}
	if hdr := got.Header.Get("X-Cache"); hdr != "peer" {
		t.Errorf("peer lookup X-Cache = %q; want peer", hdr)
	}

	missing, err := http.Get(ts2.URL + "/v1/results/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, missing.Body)
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: status %d; want 404", missing.StatusCode)
	}
}

// TestRelayCarriesVerifiedDigest: the client verifies every relayed
// worker body against its X-Snapshot-Digest, so the relay hands that
// digest on with the body and the coordinator's cache stores the
// worker's digest instead of hashing the same bytes again. Both the
// plain relay-miss path and the stream's canonical-body fetch carry it.
func TestRelayCarriesVerifiedDigest(t *testing.T) {
	c, ts, workers := newCluster(t, 1, Config{})
	simReq := server.SimRequest{
		Bench: "gzip", Scheme: "baseline",
		Footprint: "1M", Instructions: testInstr, Seed: testSeed,
	}
	resp, body := postJSON(t, ts.URL+"/v1/sim", simReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sim: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first run X-Cache = %q; want miss", got)
	}
	digest := server.SnapshotDigest(resp.Header)
	if digest != server.BodyDigest(body) {
		t.Fatalf("relayed miss X-Snapshot-Digest = %q; want BodyDigest(body) %q", digest, server.BodyDigest(body))
	}
	key := resp.Header.Get("X-Result-Key")

	get := func(url string) (*http.Response, []byte) {
		t.Helper()
		r, err := http.Get(url + "/v1/results/" + key)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s result: status %d", url, r.StatusCode)
		}
		return r, b
	}
	wresp, _ := get(workers[0].URL)
	if w := server.SnapshotDigest(wresp.Header); w != digest {
		t.Fatalf("worker digest %q differs from the relayed %q", w, digest)
	}
	cresp, cached := get(ts.URL)
	if cresp.Header.Get("X-Cache") != "hit" || !bytes.Equal(cached, body) || server.SnapshotDigest(cresp.Header) != digest {
		t.Fatalf("coordinator cache: X-Cache %q, digest %q, same body %v; want a hit with the worker's digest",
			cresp.Header.Get("X-Cache"), server.SnapshotDigest(cresp.Header), bytes.Equal(cached, body))
	}

	reqBody, err := json.Marshal(simReq)
	if err != nil {
		t.Fatal(err)
	}
	lastResult := func(relay func(emit func(server.Event)) error) server.Event {
		t.Helper()
		var final server.Event
		if err := relay(func(ev server.Event) {
			if ev.Event == "result" || ev.Event == "error" {
				final = ev
			}
		}); err != nil {
			t.Fatal(err)
		}
		if final.Event != "result" {
			t.Fatalf("relay ended in %+v; want a result", final)
		}
		return final
	}
	ctx := context.Background()
	plain := lastResult(func(emit func(server.Event)) error {
		return c.relayPlain(ctx, workers[0].URL, "/v1/sim", reqBody, key, emit)
	})
	if plain.Digest != digest || !bytes.Equal(plain.Snapshot, body) {
		t.Errorf("plain relay event digest = %q; want the worker's %q with its body", plain.Digest, digest)
	}
	stream := lastResult(func(emit func(server.Event)) error {
		return c.relayStream(ctx, workers[0].URL, "/v1/sim", reqBody, key, false, emit)
	})
	if stream.Compact || stream.Digest != digest || !bytes.Equal(stream.Snapshot, body) {
		t.Errorf("stream relay event: compact %v, digest %q; want the canonical body with the worker's digest %q",
			stream.Compact, stream.Digest, digest)
	}
}

// TestClusterRejectsBadRequests: validation happens at the coordinator
// with the same statuses a single node uses.
func TestClusterRejectsBadRequests(t *testing.T) {
	_, ts, _ := newCluster(t, 1, Config{})
	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"unknown experiment", "/v1/experiments", map[string]any{"id": "nope"}, http.StatusBadRequest},
		{"unknown engine", "/v1/experiments", map[string]any{"id": "fig7", "engine": "quantum"}, http.StatusUnprocessableEntity},
		{"missing bench", "/v1/sim", map[string]any{"scheme": "baseline"}, http.StatusBadRequest},
		{"unknown field", "/v1/sim", map[string]any{"bench": "gzip", "scheme": "baseline", "bogus": 1}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.url, tc.body)
			if resp.StatusCode != tc.want {
				t.Errorf("status %d; want %d (%s)", resp.StatusCode, tc.want, body)
			}
		})
	}
}

// TestCoordinatorMetrics sanity-checks the /metrics tree shape and its
// determinism (double export of everything but uptime).
func TestCoordinatorMetrics(t *testing.T) {
	c, ts, _ := newCluster(t, 2, Config{})
	simReq := server.SimRequest{
		Bench: "gzip", Scheme: "baseline",
		Footprint: "1M", Instructions: testInstr, Seed: testSeed,
	}
	if resp, body := postJSON(t, ts.URL+"/v1/sim", simReq); resp.StatusCode != http.StatusOK {
		t.Fatalf("sim: status %d: %s", resp.StatusCode, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"coordinator", "cells", "pool", "cache", "workers", "endpoints", "sims_relayed"} {
		if !bytes.Contains(body, []byte(fmt.Sprintf("%q", want))) {
			t.Errorf("metrics payload missing %q:\n%s", want, body)
		}
	}
	a, err := c.Snapshot().Lookup("workers").JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Snapshot().Lookup("workers").JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("workers subtree not deterministic across exports")
	}
}

// Guard: the benchmark names the tests hardcode must exist.
func TestTestBenchesExist(t *testing.T) {
	for _, b := range testBenches {
		if _, ok := workload.Lookup(b); !ok {
			t.Fatalf("test benchmark %q not in the workload registry", b)
		}
	}
}
