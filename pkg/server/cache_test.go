package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/query"
)

func mustCompile(t *testing.T, term string) func() (*query.Query, error) {
	t.Helper()
	return func() (*query.Query, error) { return query.Substring(term) }
}

func TestQueryCacheHitMissEvict(t *testing.T) {
	c := newQueryCache(2)

	qa, hit, err := c.get("a", mustCompile(t, "aa"))
	if err != nil || hit || qa == nil {
		t.Fatalf("first get: q=%v hit=%v err=%v", qa, hit, err)
	}
	qa2, hit, err := c.get("a", mustCompile(t, "aa"))
	if err != nil || !hit {
		t.Fatalf("second get: hit=%v err=%v", hit, err)
	}
	if qa2 != qa {
		t.Error("cache hit returned a different compiled instance")
	}

	c.get("b", mustCompile(t, "bb"))
	// Touch "a" so "b" is the LRU victim, then insert "c" to evict it.
	c.get("a", mustCompile(t, "aa"))
	c.get("c", mustCompile(t, "cc"))
	if c.len() != 2 {
		t.Fatalf("cache size %d after eviction, want 2", c.len())
	}
	// Recently used "a" must have survived; checking it first keeps the
	// probe from perturbing what it measures (a miss inserts).
	if _, hit, _ = c.get("a", mustCompile(t, "aa")); !hit {
		t.Error("recently used entry \"a\" was evicted")
	}
	if _, hit, _ = c.get("b", mustCompile(t, "bb")); hit {
		t.Error("LRU entry \"b\" should have been evicted")
	}

	st := c.stats()
	if st.Capacity != 2 || st.Size != 2 {
		t.Errorf("stats = %+v, want capacity 2 size 2", st)
	}
	if st.Hits != 3 || st.Misses != 4 {
		t.Errorf("stats = %+v, want 3 hits / 4 misses", st)
	}
}

func TestQueryCacheCompileErrorNotCached(t *testing.T) {
	c := newQueryCache(4)
	wantErr := errors.New("boom")
	calls := 0
	compile := func() (*query.Query, error) { calls++; return nil, wantErr }

	if _, _, err := c.get("bad", compile); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, _, err := c.get("bad", compile); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want boom", err)
	}
	if calls != 2 {
		t.Errorf("compile ran %d times, want 2 (errors must not be cached)", calls)
	}
	if c.len() != 0 {
		t.Errorf("cache holds %d entries after compile failures, want 0", c.len())
	}
}

// TestQueryCacheConcurrentSharedKey: many goroutines racing one cold key
// must all end up holding the SAME compiled query, whichever compile won.
func TestQueryCacheConcurrentSharedKey(t *testing.T) {
	c := newQueryCache(8)
	const n = 16
	out := make([]*query.Query, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q, _, err := c.get("shared", func() (*query.Query, error) { return query.Substring("race") })
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = q
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if out[i] != out[0] {
			t.Fatalf("goroutine %d holds a different compiled query than goroutine 0", i)
		}
	}
	if c.len() != 1 {
		t.Errorf("cache holds %d entries for one key, want 1", c.len())
	}
}

func TestQueryRequestCacheKeyDistinguishesSpecs(t *testing.T) {
	keys := map[string]string{}
	specs := []queryRequest{
		{Terms: []string{"ab"}},
		{Terms: []string{"ab"}, Mode: "keyword"},
		{Terms: []string{"ab"}, Combine: "or"},
		{Terms: []string{"ab"}, Not: "cd"},
		{Terms: []string{"ab", "cd"}},
		{Terms: []string{"abcd"}},
		{Terms: []string{"ab", "cd"}, Combine: "or"},
		// JSON admits \u0000 inside a term, so no separator byte may
		// delimit the parts.
		{Terms: []string{"ab\x00cd"}},
		{Terms: []string{"x"}, Not: "ab\x00cd"},
		{Terms: []string{"cd", "x"}, Not: "ab"},
	}
	for i, s := range specs {
		k := s.cacheKey()
		if prev, dup := keys[k]; dup {
			t.Errorf("specs %s and %d share cache key %q", prev, i, k)
		}
		keys[k] = fmt.Sprint(i)
	}
	// Identical specs must share a key, and runtime options must not
	// fragment the cache.
	a := queryRequest{Terms: []string{"ab"}, Top: 5, MinProb: 0.5, TimeoutMS: 100}
	b := queryRequest{Terms: []string{"ab"}}
	if a.cacheKey() != b.cacheKey() {
		t.Error("runtime-only options changed the cache key; the compiled query is the same")
	}
}
