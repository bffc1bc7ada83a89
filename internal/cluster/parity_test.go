package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ctrpred/internal/server"
)

// resultHeaders are the headers every plain result carries, from a
// single node and from a coordinator alike.
var resultHeaders = []string{"Content-Type", "X-Cache", "X-Result-Key", "X-Snapshot-Digest"}

// reply is one plain response as a client sees it.
type reply struct {
	status int
	header http.Header
	body   []byte
}

func getReply(t *testing.T, url string) reply {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return reply{resp.StatusCode, resp.Header, body}
}

func postReply(t *testing.T, url string, v any) reply {
	t.Helper()
	resp, body := postJSON(t, url, v)
	return reply{resp.StatusCode, resp.Header, body}
}

// samePlainResult asserts a coordinator reply matches the single node's:
// status, body bytes and result headers, with a digest that verifies.
// wantCache is the coordinator's expected X-Cache.
func samePlainResult(t *testing.T, path string, node, coord reply, wantCache string) {
	t.Helper()
	if node.status != http.StatusOK || coord.status != node.status {
		t.Fatalf("%s: status node %d, coordinator %d; want both 200", path, node.status, coord.status)
	}
	if !bytes.Equal(node.body, coord.body) {
		t.Errorf("%s: coordinator body differs from the single node's", path)
	}
	for _, h := range resultHeaders {
		if node.header.Get(h) == "" || coord.header.Get(h) == "" {
			t.Errorf("%s: header %s: node %q, coordinator %q; want it on both", path, h, node.header.Get(h), coord.header.Get(h))
		}
	}
	for _, h := range []string{"Content-Type", "X-Result-Key"} {
		if node.header.Get(h) != coord.header.Get(h) {
			t.Errorf("%s: %s differs: node %q, coordinator %q", path, h, node.header.Get(h), coord.header.Get(h))
		}
	}
	if got := coord.header.Get("X-Cache"); got != wantCache {
		t.Errorf("%s: coordinator X-Cache = %q; want %q", path, got, wantCache)
	}
	for who, r := range map[string]reply{"node": node, "coordinator": coord} {
		if d := server.SnapshotDigest(r.header); d != server.BodyDigest(r.body) {
			t.Errorf("%s: %s digest %q does not verify its body", path, who, d)
		}
	}
}

// TestCoordinatorNodeParity: for the same sim and experiment request, a
// coordinator and a single node answer with the same status, body bytes
// and result headers on a plain miss, a plain hit, and a by-key fetch —
// from the coordinator's cache and, through a cold coordinator, from a
// worker peer. A split sweep's merged result exists only where it was
// merged, so only whole-job relays are fetched from a peer.
func TestCoordinatorNodeParity(t *testing.T) {
	_, node := newWorker(t, server.Config{})
	_, coord, workers := newCluster(t, 2, Config{})
	cold := New(Config{Workers: []string{workers[0].URL, workers[1].URL}, ProbeInterval: -1})
	coldTS := httptest.NewServer(cold)
	t.Cleanup(func() {
		coldTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		cold.Shutdown(ctx)
	})

	oneBench := expRequest("fig7")
	oneBench.Benchmarks = []string{"mcf"}
	for _, tc := range []struct {
		path string
		req  any
		peer bool
	}{
		{"/v1/sim", server.SimRequest{
			Bench: "gzip", Scheme: "pred-context",
			Footprint: "1M", Instructions: testInstr, Seed: testSeed,
		}, true},
		{"/v1/experiments", expRequest("fig7"), false},
		{"/v1/experiments", oneBench, true},
	} {
		n := postReply(t, node.URL+tc.path, tc.req)
		c := postReply(t, coord.URL+tc.path, tc.req)
		samePlainResult(t, tc.path+" miss", n, c, "miss")

		n = postReply(t, node.URL+tc.path, tc.req)
		c = postReply(t, coord.URL+tc.path, tc.req)
		samePlainResult(t, tc.path+" hit", n, c, "hit")

		key := n.header.Get("X-Result-Key")
		n = getReply(t, node.URL+"/v1/results/"+key)
		c = getReply(t, coord.URL+"/v1/results/"+key)
		samePlainResult(t, tc.path+" by key", n, c, "hit")

		if tc.peer {
			c = getReply(t, coldTS.URL+"/v1/results/"+key)
			samePlainResult(t, tc.path+" by key from a peer", n, c, "peer")
		}
	}
}
