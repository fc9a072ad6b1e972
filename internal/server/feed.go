package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/httpcache"
	"repro/internal/obs"
)

// The invalidation feed (wire contract: internal/httpcache/feed.go). A
// fronting router used to ask this worker "unchanged?" before every cached
// read; instead the worker tells each router when something changes.
// Everything Server.cacheKey reads is covered: install and the view
// releases call changed directly, and the catalog's one OnChange hook
// reports every generation move, removal and eviction.

const (
	// feedBuffer is how many change frames one router may fall behind.
	// A lost frame would leave that router trusting a stale tile, so a
	// router whose buffer is full is disconnected instead (it falls back to
	// revalidating every read and reconnects); 256 is several seconds of
	// the fastest mutation loop the benchmark drives.
	feedBuffer = 256

	defaultHeartbeat = time.Second
	minHeartbeat     = 10 * time.Millisecond
	maxHeartbeat     = time.Minute
)

// feed is the worker's change ledger and its subscriber set.
type feed struct {
	boot string // per-process id, sent in every hello

	mu       sync.Mutex
	seq      uint64            // one sequence for all graphs, so a version never repeats
	versions map[string]uint64 // graph → seq of its latest change; entries outlive their graph
	subs     map[chan httpcache.Frame]struct{}

	subscribers *obs.Gauge
	dropped     *obs.Counter
}

func newFeed(reg *obs.Registry) *feed {
	var b [8]byte
	_, _ = rand.Read(b[:]) // crypto/rand.Read does not fail on supported platforms
	return &feed{
		boot:        hex.EncodeToString(b[:]),
		versions:    map[string]uint64{},
		subs:        map[chan httpcache.Frame]struct{}{},
		subscribers: reg.Gauge("invalidation_subscribers"),
		dropped:     reg.Counter("invalidations_dropped_total"),
	}
}

// changed gives the named graph a new version and queues the frame on
// every feed. Callers change the state first and call this second, and
// readers take the version first and the state second (stampVersion), so
// a response never carries a version newer than its content. It never
// blocks: a subscriber with no room left is cut off, not waited for. The
// catalog calls it under its own lock.
func (f *feed) changed(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	f.versions[name] = f.seq
	fr := httpcache.Frame{Graph: name, Version: f.seq}
	for ch := range f.subs {
		select {
		case ch <- fr:
		default:
			delete(f.subs, ch)
			close(ch)
			f.subscribers.Add(-1)
			f.dropped.Inc()
		}
	}
}

// subscribe opens one feed's frame channel; changed closes it when the
// reader falls feedBuffer frames behind. The returned func unsubscribes.
func (f *feed) subscribe() (<-chan httpcache.Frame, func()) {
	ch := make(chan httpcache.Frame, feedBuffer)
	f.mu.Lock()
	f.subs[ch] = struct{}{}
	f.mu.Unlock()
	f.subscribers.Add(1)
	return ch, func() {
		f.mu.Lock()
		if _, live := f.subs[ch]; live {
			delete(f.subs, ch)
			f.subscribers.Add(-1)
		}
		f.mu.Unlock()
	}
}

// stampVersion sets the named graph's current version on the response.
// View handlers call it before they look the view up; mutation handlers
// after the mutation is in place.
func (s *Server) stampVersion(w http.ResponseWriter, name string) {
	s.feed.mu.Lock()
	v := s.feed.versions[name]
	s.feed.mu.Unlock()
	w.Header().Set(httpcache.VersionHeader, strconv.FormatUint(v, 10))
}

// handleInvalidations is GET /invalidations?heartbeat=<duration>: the
// fleet-internal change feed. It answers with the hello frame, then one
// frame per change, and a heartbeat whenever the interval the router asked
// for (clamped to [10ms, 1m], 1s when absent) passes in silence. Every
// write carries its own deadline of two heartbeats — which also lifts the
// http.Server's WriteTimeout off this long-lived response — so a router
// that stops reading is dropped by the deadline or, sooner, by changed.
func (s *Server) handleInvalidations(w http.ResponseWriter, r *http.Request) {
	hb, err := time.ParseDuration(r.URL.Query().Get("heartbeat"))
	if err != nil {
		hb = defaultHeartbeat
	}
	hb = min(max(hb, minHeartbeat), maxHeartbeat)

	// Subscribe before the hello: the router trusts tiles it fetches after
	// the hello, so every change from here on must reach it.
	frames, unsubscribe := s.feed.subscribe()
	defer unsubscribe()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	send := func(fr httpcache.Frame) bool {
		// A writer that cannot take a deadline is bounded by WriteTimeout.
		_ = rc.SetWriteDeadline(time.Now().Add(2 * hb))
		return enc.Encode(fr) == nil && rc.Flush() == nil
	}
	if !send(httpcache.Frame{Boot: s.feed.boot, HeartbeatMs: hb.Milliseconds()}) {
		return
	}
	tick := time.NewTicker(hb)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case fr, open := <-frames:
			if !open || !send(fr) {
				return
			}
			tick.Reset(hb)
		case <-tick.C:
			if !send(httpcache.Frame{}) {
				return
			}
		}
	}
}
