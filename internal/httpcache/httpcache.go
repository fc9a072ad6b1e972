// Package httpcache holds the response-caching primitives the worker
// (internal/server) and the router (internal/shard) share: a byte-budget
// LRU, a singleflight, and the ETag-revalidated response writer. Each
// tier has its own instances; there is one implementation of each.
package httpcache

import (
	"container/list"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
)

// LRU is a byte-budget least-recently-used cache: zoom keys span up to
// n × 100 (vertex × hops) renders, so an unbounded cache is an OOM for
// any crawler. max <= 0 disables the bound. Values are immutable.
type LRU[V any] struct {
	mu     sync.Mutex
	max    int64
	size   int64
	weight func(V) int64
	ll     *list.List // front = most recently used
	items  map[string]*list.Element

	hits, misses, evictions *obs.Counter
}

type lruEntry[V any] struct {
	key string
	val V
}

// NewLRU returns a cache of at most maxBytes as charged by weight; reg
// gets <family>_{hits,misses,evictions}_total and the <family>_bytes gauge.
func NewLRU[V any](maxBytes int64, weight func(V) int64, reg *obs.Registry, family string) *LRU[V] {
	c := &LRU[V]{
		max:       maxBytes,
		weight:    weight,
		ll:        list.New(),
		items:     map[string]*list.Element{},
		hits:      reg.Counter(family + "_hits_total"),
		misses:    reg.Counter(family + "_misses_total"),
		evictions: reg.Counter(family + "_evictions_total"),
	}
	reg.GaugeFunc(family+"_bytes", func() float64 { return float64(c.Bytes()) })
	return c
}

// Get returns key's value, marks it most-recently-used and counts a hit or miss.
func (c *LRU[V]) Get(key string) (V, bool) { return c.get(key, true) }

// Peek is Get without the hit/miss accounting, for a caller whose Get
// already counted this lookup (the singleflight double-check).
func (c *LRU[V]) Peek(key string) (V, bool) { return c.get(key, false) }

func (c *LRU[V]) get(key string, count bool) (val V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok {
		if count {
			c.misses.Inc()
		}
		return val, false
	}
	c.ll.MoveToFront(e)
	if count {
		c.hits.Inc()
	}
	return e.Value.(*lruEntry[V]).val, true
}

// Put inserts or replaces key and evicts least-recently-used entries
// until the cache fits its budget. A value heavier than the whole budget
// only displaces the stale entry under its key and is not cached.
func (c *LRU[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.remove(e)
	}
	w := c.weight(val)
	if c.max > 0 && w > c.max {
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	c.size += w
	for c.max > 0 && c.size > c.max {
		back := c.ll.Back()
		if back.Value.(*lruEntry[V]).key == key {
			break // never evict the entry just inserted
		}
		c.remove(back)
		c.evictions.Inc()
	}
}

// DropIf removes every entry drop reports true for.
func (c *LRU[V]) DropIf(drop func(key string, val V) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.items {
		if drop(key, e.Value.(*lruEntry[V]).val) {
			c.remove(e)
		}
	}
}

// remove deletes e from the cache. Caller holds c.mu.
func (c *LRU[V]) remove(e *list.Element) {
	ent := e.Value.(*lruEntry[V])
	c.ll.Remove(e)
	delete(c.items, ent.key)
	c.size -= c.weight(ent.val)
}

// Bytes returns the cached weight.
func (c *LRU[V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Len returns the number of cached entries.
func (c *LRU[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// ErrFlightAborted is what waiters get when the call they joined panicked.
var ErrFlightAborted = errors.New("httpcache: in-flight call aborted")

// Flight is a stdlib-only singleflight: while a call for key is in
// flight, later callers block on it and share its result — N concurrent
// requests for one cold view run one render, or one upstream fetch.
type Flight[V any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[V]
}

type flightCall[V any] struct {
	done   chan struct{}
	joined int // waiters sharing this call; guarded by Flight.mu
	val    V
	err    error
}

// Do runs fn once per key among concurrent callers; all get its result.
// shared reports whether this caller joined a flight instead of running fn.
func (g *Flight[V]) Do(key string, fn func() (V, error)) (val V, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*flightCall[V]{}
	}
	if c, ok := g.m[key]; ok {
		c.joined++
		g.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall[V]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	completed := false
	defer func() {
		// Release waiters even if fn panics; the panic propagates to this
		// caller (and net/http's recovery) while waiters get an error.
		if !completed {
			c.err = ErrFlightAborted
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	completed = true
	return c.val, false, c.err
}

// WriteRevalidated serves body under etag, or a bodiless 304 to a client
// (or fronting router) whose If-None-Match list names etag or "*". The
// 200 declares its Content-Length, so a tile larger than net/http's
// 2 KB sniff buffer is not sent chunked and the reader can size its
// buffer up front.
func WriteRevalidated(w http.ResponseWriter, r *http.Request, etag, ctype string, body []byte) {
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", ctype)
	for inm := r.Header.Get("If-None-Match"); inm != ""; {
		var tok string
		tok, inm, _ = strings.Cut(inm, ",")
		if tok = strings.TrimSpace(tok); tok == etag || tok == "*" {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}
