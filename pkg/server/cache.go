package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	"github.com/paper-repo/staccato-go/pkg/query"
)

// queryCache is a thread-safe LRU of compiled queries keyed by the
// canonical query-spec string. Compiling a Query costs real work (leaf
// validation, duplicate-leaf sharing, expression assembly) that PR 2
// measured at ~2x per evaluation when paid on every request; a server
// sees the same query strings over and over, so the cache turns repeat
// traffic into a map lookup. Compiled queries are immutable and already
// shared across engine workers, so sharing one instance across requests
// is safe.
//
// Hit/miss counters are atomics read by the metrics layer — the cache's
// effectiveness is part of the service's observable surface, not a
// private implementation detail.
type queryCache struct {
	hits   atomic.Int64
	misses atomic.Int64

	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	q   *query.Query
}

func newQueryCache(capacity int) *queryCache {
	return &queryCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the compiled query for key, compiling and caching it on a
// miss. The bool reports whether the call was a cache hit. compile runs
// outside the lock, so two concurrent first requests for the same key
// may both compile — harmless, and cheaper than serializing every
// compile behind one mutex: the first instance inserted is kept and
// returned to both, and the later one is dropped.
// Compile errors are returned and never cached: an invalid spec stays
// invalid, and caching it would only pin garbage.
func (c *queryCache) get(key string, compile func() (*query.Query, error)) (*query.Query, bool, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		q := el.Value.(*cacheEntry).q
		c.mu.Unlock()
		c.hits.Add(1)
		return q, true, nil
	}
	c.mu.Unlock()
	c.misses.Add(1)

	q, err := compile()
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		// A concurrent request compiled the same key first; keep its
		// instance so every holder shares one compiled query.
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).q, false, nil
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, q: q})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
	return q, false, nil
}

// len returns the number of cached queries.
func (c *queryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// cacheStats is the cache's observable state, one branch of the /v1/stats
// response.
type cacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Size     int   `json:"size"`
	Capacity int   `json:"capacity"`
}

func (c *queryCache) stats() cacheStats {
	return cacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Size:     c.len(),
		Capacity: c.cap,
	}
}
