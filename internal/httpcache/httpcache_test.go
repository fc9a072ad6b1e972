package httpcache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func newTestLRU(max int64) (*LRU[[]byte], *obs.Counter, *obs.Counter, *obs.Counter) {
	reg := obs.NewRegistry()
	c := NewLRU(max, func(b []byte) int64 { return int64(len(b)) }, reg, "test")
	return c, reg.Counter("test_hits_total"), reg.Counter("test_misses_total"), reg.Counter("test_evictions_total")
}

// contains reports whether key is cached without the hit/miss accounting.
func contains(c *LRU[[]byte], key string) bool {
	_, ok := c.Peek(key)
	return ok
}

// joiners reports how many callers are currently sharing the in-flight
// call for key (0 when nothing is in flight), so tests can sequence
// deterministically against the flight lifecycle.
func (g *Flight[V]) joiners(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.joined
	}
	return 0
}

func TestLRUBasic(t *testing.T) {
	c, hits, misses, _ := newTestLRU(100)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a value")
	}
	c.Put("a", []byte("aaaa"))
	v, ok := c.Get("a")
	if !ok || string(v) != "aaaa" {
		t.Fatalf("got %q ok=%v", v, ok)
	}
	if hits.Value() != 1 || misses.Value() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits.Value(), misses.Value())
	}
	if c.Bytes() != 4 || c.Len() != 1 {
		t.Fatalf("bytes=%d len=%d", c.Bytes(), c.Len())
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c, _, _, ev := newTestLRU(10)
	c.Put("a", []byte("aaaa")) // 4 bytes
	c.Put("b", []byte("bbbb")) // 8 bytes total
	c.Get("a")                 // a is now most recent
	c.Put("c", []byte("cccc")) // 12 > 10: evict b (LRU), not a
	if contains(c, "b") {
		t.Fatal("b should have been evicted")
	}
	if !contains(c, "a") || !contains(c, "c") {
		t.Fatal("a and c should survive")
	}
	if ev.Value() != 1 {
		t.Fatalf("evictions=%d, want 1", ev.Value())
	}
	if c.Bytes() != 8 {
		t.Fatalf("bytes=%d, want 8", c.Bytes())
	}
}

func TestLRUReplaceAdjustsSize(t *testing.T) {
	c, _, _, _ := newTestLRU(100)
	c.Put("a", []byte("aaaa"))
	c.Put("a", []byte("aaaaaaaa"))
	if c.Bytes() != 8 || c.Len() != 1 {
		t.Fatalf("bytes=%d len=%d after replace", c.Bytes(), c.Len())
	}
}

func TestLRUOversizedValueNotCached(t *testing.T) {
	c, _, _, _ := newTestLRU(10)
	c.Put("small", []byte("ssss"))
	c.Put("big", make([]byte, 11))
	if contains(c, "big") {
		t.Fatal("value larger than the whole budget must not be cached")
	}
	if !contains(c, "small") {
		t.Fatal("oversized insert must not wipe existing entries")
	}
	// Replacing an existing key with an oversized value removes the stale entry.
	c.Put("small", make([]byte, 11))
	if contains(c, "small") {
		t.Fatal("stale entry must be dropped when the new value is oversized")
	}
	if c.Bytes() != 0 {
		t.Fatalf("bytes=%d, want 0", c.Bytes())
	}
}

func TestLRUUnboundedWhenNegative(t *testing.T) {
	c, _, _, ev := newTestLRU(-1)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprint(i), make([]byte, 1000))
	}
	if c.Len() != 100 || ev.Value() != 0 {
		t.Fatalf("len=%d evictions=%d, want 100/0", c.Len(), ev.Value())
	}
}

func TestLRUConcurrent(t *testing.T) {
	c, _, _, _ := newTestLRU(1 << 14)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprint(i % 37)
				if v, ok := c.Get(key); ok && len(v) != 100 {
					t.Errorf("corrupt value length %d", len(v))
				}
				c.Put(key, make([]byte, 100))
			}
		}(w)
	}
	wg.Wait()
	if c.Bytes() > 1<<14 {
		t.Fatalf("bytes=%d over budget", c.Bytes())
	}
}

func TestFlightGroupDedup(t *testing.T) {
	var g Flight[[]byte]
	started := make(chan struct{})
	release := make(chan struct{})
	var calls int
	var mu sync.Mutex

	var wg sync.WaitGroup
	results := make([]string, 20)
	// Leader occupies the flight, then 19 joiners pile on.
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, _ := g.Do("k", func() ([]byte, error) {
			mu.Lock()
			calls++
			mu.Unlock()
			close(started)
			<-release
			return []byte("result"), nil
		})
		results[0] = string(v)
	}()
	<-started
	for i := 1; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, _ := g.Do("k", func() ([]byte, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				return []byte("dup"), nil
			})
			if !shared {
				t.Error("joiner should report shared")
			}
			results[i] = string(v)
		}(i)
	}
	// Only release the leader once every joiner is provably attached to
	// the in-flight call; otherwise the flight could complete first and
	// late joiners would start their own.
	for g.joiners("k") != 19 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	for i, r := range results {
		if r != "result" {
			t.Fatalf("result[%d] = %q", i, r)
		}
	}
}

func TestLRUDropIf(t *testing.T) {
	c, _, _, ev := newTestLRU(100)
	c.Put("/layout.png", []byte("default"))
	c.Put("/graphs/default/layout.png", []byte("default"))
	c.Put("/graphs/other/layout.png", []byte("other"))
	c.Put("/graphs/other/stats", []byte("other"))
	c.DropIf(func(key string, v []byte) bool { return string(v) == "default" || key == "/graphs/other/stats" })
	if contains(c, "/layout.png") || contains(c, "/graphs/default/layout.png") || contains(c, "/graphs/other/stats") {
		t.Fatal("a matching entry survived DropIf")
	}
	if !contains(c, "/graphs/other/layout.png") || c.Len() != 1 || c.Bytes() != 5 {
		t.Fatalf("after DropIf: len=%d bytes=%d", c.Len(), c.Bytes())
	}
	if ev.Value() != 0 {
		t.Fatalf("DropIf counted %d evictions; a drop is not budget pressure", ev.Value())
	}
}
