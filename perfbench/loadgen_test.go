package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func TestScheduleDeterministic(t *testing.T) {
	a := schedule(7, 3, 50, time.Second)
	b := schedule(7, 3, 50, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave two different arrival schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 3, 50, time.Second)) {
		t.Fatal("different seeds gave the same arrival schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= time.Second {
			t.Fatalf("arrival %d at %v is out of order or outside the window", i, a[i])
		}
	}
}

// A handler stalled for a fixed time must charge the stall to the
// requests that fell due behind it: latency runs from the due time, not
// from when the generator finally sent the request.
func TestOpenLoopCountsStallAgainstQueuedRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	first := make(chan struct{}, 1)
	first <- struct{}{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-first:
			time.Sleep(stall)
		default:
		}
	}))
	defer srv.Close()
	hc := srv.Client()

	dues := make([]time.Duration, 25)
	for i := range dues {
		dues[i] = time.Duration(i) * 20 * time.Millisecond
	}
	res := openLoop(context.Background(), 1, dues, func(ctx context.Context, i int) {
		resp, err := hc.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	})
	// Request 5 fell due 100 ms in, while request 0 held the only
	// connection until ~300 ms: it waited at least ~200 ms.
	if got := res.latency[5]; got < stall-dues[5]-20*time.Millisecond {
		t.Errorf("request due at %v has latency %v; the stall ahead of it was not counted", dues[5], got)
	}
	if res.lag[5] < stall-dues[5]-20*time.Millisecond {
		t.Errorf("request 5 lag %v: the generator should report it was sent late", res.lag[5])
	}
	if res.backlogMax < 5 {
		t.Errorf("backlog max %d, want the requests queued behind the stall", res.backlogMax)
	}
	// Once the stall and its backlog have cleared, requests are on time.
	if res.latency[24] > 50*time.Millisecond {
		t.Errorf("request 24, due at %v after the stall cleared, took %v", dues[24], res.latency[24])
	}
}
