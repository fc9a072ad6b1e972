package server

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/httpcache"
	"repro/internal/obs"
)

// The change feed (router wire contract: internal/httpcache/feed.go). A
// fronting router used to ask this worker "unchanged?" before every cached
// read; instead the worker tells each router when something changes, and
// the SSE layout stream (stream.go) reads the same frames to learn when its
// graph's view moved. Everything Server.cacheKey reads is covered: install
// and the view releases call changed directly, and the catalog's one
// OnChange hook reports every generation move, removal and eviction.

const (
	// feedBuffer is how many change frames one subscriber may fall behind.
	// A lost frame would leave a router trusting a stale tile, or a stream
	// showing a stale layout, so a subscriber whose buffer is full is
	// disconnected instead (a router falls back to revalidating every read
	// and reconnects; a stream client reconnects for a fresh snapshot); 256
	// is several seconds of the fastest mutation loop the benchmark drives.
	feedBuffer = 256

	defaultHeartbeat = time.Second
	minHeartbeat     = 10 * time.Millisecond
	maxHeartbeat     = time.Minute
)

// subKind is the metric pair one kind of subscriber reports on.
type subKind struct {
	subscribers *obs.Gauge
	dropped     *obs.Counter // subscribers cut off for falling feedBuffer frames behind
}

// feed is the worker's change ledger and its one subscriber set.
type feed struct {
	boot string // per-process id, sent in every hello

	mu       sync.Mutex
	seq      uint64            // one sequence for all graphs, so a version never repeats
	versions map[string]uint64 // graph → seq of its latest change; entries outlive their graph
	subs     map[chan httpcache.Frame]subKind

	routers, streams subKind
}

func newFeed(reg *obs.Registry) *feed {
	var b [8]byte
	_, _ = rand.Read(b[:]) // crypto/rand.Read does not fail on supported platforms
	return &feed{
		boot:     hex.EncodeToString(b[:]),
		versions: map[string]uint64{},
		subs:     map[chan httpcache.Frame]subKind{},
		routers:  subKind{reg.Gauge("invalidation_subscribers"), reg.Counter("invalidations_dropped_total")},
		streams:  subKind{reg.Gauge("stream_subscribers"), reg.Counter("streams_dropped_total")},
	}
}

// changed gives the named graph a new version and queues the frame for
// every subscriber. Callers change the state first and call this second,
// and readers take the version first and the state second (stampVersion),
// so a response never carries a version newer than its content. It never
// blocks: a subscriber with no room left is cut off, not waited for. The
// catalog calls it under its own lock. requestID goes on the frame.
func (f *feed) changed(name, requestID string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	f.versions[name] = f.seq
	fr := httpcache.Frame{Graph: name, Version: f.seq, RequestID: requestID}
	for ch, k := range f.subs {
		select {
		case ch <- fr:
		default:
			delete(f.subs, ch)
			close(ch)
			k.subscribers.Add(-1)
			k.dropped.Inc()
		}
	}
}

// subscribe opens one frame channel counted as k; changed closes it when
// the reader falls feedBuffer frames behind. The returned func
// unsubscribes.
func (f *feed) subscribe(k subKind) (<-chan httpcache.Frame, func()) {
	ch := make(chan httpcache.Frame, feedBuffer)
	f.mu.Lock()
	f.subs[ch] = k
	f.mu.Unlock()
	k.subscribers.Add(1)
	return ch, func() {
		f.mu.Lock()
		if _, live := f.subs[ch]; live {
			delete(f.subs, ch)
			k.subscribers.Add(-1)
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

// push is the one serve loop of both long-lived responses. It subscribes
// as k, hands write the opening frame and then every frame of the feed,
// and writes beat every hb. It returns when the client leaves, the server
// hangs up, changed cuts the subscriber off, write reports false or a
// write fails. Every write carries its own deadline of two heartbeats —
// which also lifts the http.Server's WriteTimeout off the response — so a
// client that stops reading is dropped by the deadline or, sooner, by
// changed.
func (s *Server) push(w http.ResponseWriter, r *http.Request, k subKind, hb time.Duration, beat string,
	open httpcache.Frame, write func(*bufio.Writer, httpcache.Frame) bool) {
	// Subscribe before the opening frame: whatever it is written from, every
	// change after it must reach this response.
	frames, unsubscribe := s.feed.subscribe(k)
	defer unsubscribe()

	rc := http.NewResponseController(w)
	bw := bufio.NewWriter(deadlineWriter{w, rc, 2 * hb})
	flush := func() bool { return bw.Flush() == nil && rc.Flush() == nil }
	if !write(bw, open) || !flush() {
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
		case fr, live := <-frames:
			if !live || !write(bw, fr) || !flush() {
				return
			}
		case <-tick.C:
			if _, err := bw.WriteString(beat); err != nil || !flush() {
				return
			}
		}
	}
}

// deadlineWriter sets the write deadline d ahead before every write. A
// writer that cannot take a deadline is bounded by WriteTimeout.
type deadlineWriter struct {
	w  io.Writer
	rc *http.ResponseController
	d  time.Duration
}

func (dw deadlineWriter) Write(p []byte) (int, error) {
	_ = dw.rc.SetWriteDeadline(time.Now().Add(dw.d))
	return dw.w.Write(p)
}

// handleInvalidations is GET /invalidations?heartbeat=<duration>: the
// fleet-internal change feed. It answers with the hello frame, then one
// frame per change, and an empty frame as the heartbeat at the interval
// the router asked for (clamped to [10ms, 1m], 1s when absent).
func (s *Server) handleInvalidations(w http.ResponseWriter, r *http.Request) {
	hb, err := time.ParseDuration(r.URL.Query().Get("heartbeat"))
	if err != nil {
		hb = defaultHeartbeat
	}
	hb = min(max(hb, minHeartbeat), maxHeartbeat)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	// The router trusts tiles it fetches after the hello.
	hello := httpcache.Frame{Boot: s.feed.boot, HeartbeatMs: hb.Milliseconds()}
	s.push(w, r, s.feed.routers, hb, "{}\n", hello, func(bw *bufio.Writer, fr httpcache.Frame) bool {
		return json.NewEncoder(bw).Encode(fr) == nil
	})
}
