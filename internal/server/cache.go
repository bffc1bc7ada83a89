package server

import (
	"container/list"
	"sync"
)

// ResultCache is the content-addressed store of completed results:
// canonical request hash → final snapshot JSON and its digest. Entries
// are immutable — a key fully determines the simulation output — so a
// hit is served without touching the job queue at all, and without
// rehashing the body for its X-Snapshot-Digest. Bounded LRU; a repeated
// sweep of distinct configs evicts the coldest results first.
type ResultCache struct {
	mu      sync.Mutex
	cap     int
	byKey   map[string]*list.Element
	order   list.List // front = most recently used
	hits    uint64
	misses  uint64
	evicted uint64
}

type cacheEntry struct {
	key    string
	body   []byte
	digest string
}

// NewResultCache builds a cache holding up to capacity results;
// capacity <= 0 disables caching (every lookup misses, puts are
// dropped).
func NewResultCache(capacity int) *ResultCache {
	return &ResultCache{cap: capacity, byKey: make(map[string]*list.Element)}
}

// Get returns the cached body for key and the digest Put computed for
// it, if present.
func (c *ResultCache) Get(key string) (body []byte, digest string, ok bool) {
	if c == nil || c.cap <= 0 {
		return nil, "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, "", false
	}
	c.hits++
	c.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.body, e.digest, true
}

// Put stores body under key, evicting the least recently used entries
// past capacity, and returns the body's digest (also when the cache is
// disabled: the response carries it either way). digest is the body's
// BodyDigest when the caller already holds it (a relay verified it);
// "" has Put hash the body itself.
func (c *ResultCache) Put(key string, body []byte, digest string) string {
	if digest == "" {
		digest = BodyDigest(body) // outside the lock: hits must not queue behind a hash
	}
	if c == nil || c.cap <= 0 {
		return digest
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		// Same key ⇒ same bytes; just refresh recency.
		c.order.MoveToFront(el)
		return digest
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, body: body, digest: digest})
	for len(c.byKey) > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		c.evicted++
	}
	return digest
}

// CacheStats is a point-in-time view of a ResultCache's counters.
type CacheStats struct {
	Entries, Capacity       int
	Hits, Misses, Evictions uint64
}

// Stats returns the cache's counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries: len(c.byKey), Capacity: c.cap,
		Hits: c.hits, Misses: c.misses, Evictions: c.evicted,
	}
}
