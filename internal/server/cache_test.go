package server

import "testing"

// TestResultCacheStoresDigest: Put computes a body's digest once and Get
// returns it with the body, so a hit is stamped without rehashing; a
// disabled cache still returns the digest its caller must send. A digest
// the caller already verified (a relay) is stored and returned as given,
// not computed again.
func TestResultCacheStoresDigest(t *testing.T) {
	body := []byte("{\n  \"a\": 1\n}\n")
	c := NewResultCache(2)
	if got := c.Put("k", body, ""); got != BodyDigest(body) {
		t.Fatalf("Put digest = %s; want %s", got, BodyDigest(body))
	}
	got, digest, ok := c.Get("k")
	if !ok || string(got) != string(body) || digest != BodyDigest(body) {
		t.Fatalf("Get = %q, %s, %v; want the body and its digest", got, digest, ok)
	}
	if d := NewResultCache(-1).Put("k", body, ""); d != BodyDigest(body) {
		t.Fatalf("disabled cache Put digest = %s; want %s", d, BodyDigest(body))
	}
	if d := c.Put("supplied", body, "supplied-digest"); d != "supplied-digest" {
		t.Fatalf("Put with a supplied digest = %s; want it returned as given", d)
	}
	if _, d, ok := c.Get("supplied"); !ok || d != "supplied-digest" {
		t.Fatalf("Get after a supplied digest = %s, %v; want it stored as given", d, ok)
	}
}
