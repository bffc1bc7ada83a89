package server

import (
	"bytes"
	"context"
	"net/http"
	"testing"

	"ctrpred/internal/stats"
)

// TestSnapshotDigestHeader: every plain JSON result body — fresh,
// cached, and fetched by key — advertises its own sha256 so relays can
// verify integrity end to end.
func TestSnapshotDigestHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := smallReq()

	resp := postJSON(t, ts.URL+"/v1/sim", req)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	digest := SnapshotDigest(resp.Header)
	if digest == "" {
		t.Fatal("fresh result carries no X-Snapshot-Digest")
	}
	if want := BodyDigest(body); digest != want {
		t.Fatalf("advertised digest %s != body digest %s", digest, want)
	}
	key := resp.Header.Get("X-Result-Key")

	// The cache-hit path advertises the same digest over the same bytes.
	resp2 := postJSON(t, ts.URL+"/v1/sim", req)
	body2 := readBody(t, resp2)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatal("second request missed the cache")
	}
	if got := SnapshotDigest(resp2.Header); got != digest {
		t.Fatalf("cached digest %s != fresh digest %s", got, digest)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("cached body differs from the fresh one")
	}

	// So does the by-key result endpoint peers use.
	resp3, err := http.Get(ts.URL + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	body3 := readBody(t, resp3)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("GET by key: status %d", resp3.StatusCode)
	}
	if got := SnapshotDigest(resp3.Header); got != digest {
		t.Fatalf("by-key digest %s != fresh digest %s", got, digest)
	}
	if !bytes.Equal(body, body3) {
		t.Fatal("by-key body differs from the fresh one")
	}
}

// TestExecuteLocal: the local executor, driven directly with typed
// jobs the way a coordinator's degraded mode drives it, must produce
// bytes identical to the HTTP path for the same request, and job
// validation must reject bad input with the statuses the handlers use.
func TestExecuteLocal(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	var l Local
	run := func(start func(emit func(Event))) Event {
		t.Helper()
		var final Event
		start(func(ev Event) {
			if ev.Event == "result" || ev.Event == "error" {
				final = ev
			}
		})
		if final.Event != "result" {
			t.Fatalf("local run ended with %+v; want a result", final)
		}
		return final
	}

	req := smallReq()
	viaHTTP := readBody(t, postJSON(t, ts.URL+"/v1/sim", req))
	bench, cfg, err := req.buildSim()
	if err != nil {
		t.Fatal(err)
	}
	local := run(func(emit func(Event)) { l.RunSim(ctx, SimJob{Req: req, Bench: bench, Config: cfg}, emit) })
	if !bytes.Equal(local.Snapshot, viaHTTP) {
		t.Error("local sim differs from the HTTP run")
	}

	expReq := ExperimentRequest{
		ID: "fig7", Benchmarks: []string{"gzip"},
		Instructions: 30_000, Footprint: "64K", Seed: 7, Workers: 2,
	}
	expHTTP := readBody(t, postJSON(t, ts.URL+"/v1/experiments", expReq))
	job, err := NewExperimentJob(expReq, 2)
	if err != nil {
		t.Fatalf("NewExperimentJob: %v", err)
	}
	localExp := run(func(emit func(Event)) { l.RunExperiment(ctx, job, emit) })
	if !bytes.Equal(localExp.Snapshot, expHTTP) {
		t.Error("local experiment differs from the HTTP run")
	}
	root := stats.NewSnapshot("server")
	l.Metrics(root)
	if n, _ := root.CounterValue("experiments_run"); n != 1 {
		t.Errorf("experiments_run = %d; want 1", n)
	}

	_, _, benchErr := SimRequest{Bench: "nope", Scheme: "baseline"}.buildSim()
	_, idErr := NewExperimentJob(ExperimentRequest{ID: "nope"}, 1)
	_, engineErr := NewExperimentJob(ExperimentRequest{ID: "fig7", Engine: "quantum"}, 1)
	for _, tc := range []struct {
		name       string
		err        error
		wantStatus int
	}{
		{"unknown bench", benchErr, http.StatusBadRequest},
		{"unknown experiment", idErr, http.StatusBadRequest},
		{"unknown engine", engineErr, http.StatusUnprocessableEntity},
	} {
		if tc.err == nil {
			t.Errorf("%s: validation succeeded; want an error", tc.name)
			continue
		}
		if status := buildStatus(tc.err); status != tc.wantStatus {
			t.Errorf("%s: status %d; want %d (err: %v)", tc.name, status, tc.wantStatus, tc.err)
		}
	}
}
