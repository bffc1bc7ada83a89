package server

import "testing"

// TestResultCacheStoresDigest: Put computes a body's digest once and Get
// returns it with the body, so a hit is stamped without rehashing; a
// disabled cache still returns the digest its caller must send.
func TestResultCacheStoresDigest(t *testing.T) {
	body := []byte("{\n  \"a\": 1\n}\n")
	c := NewResultCache(2)
	if got := c.Put("k", body); got != BodyDigest(body) {
		t.Fatalf("Put digest = %s; want %s", got, BodyDigest(body))
	}
	got, digest, ok := c.Get("k")
	if !ok || string(got) != string(body) || digest != BodyDigest(body) {
		t.Fatalf("Get = %q, %s, %v; want the body and its digest", got, digest, ok)
	}
	if d := NewResultCache(-1).Put("k", body); d != BodyDigest(body) {
		t.Fatalf("disabled cache Put digest = %s; want %s", d, BodyDigest(body))
	}
}
