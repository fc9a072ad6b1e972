package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/httpcache"
	"repro/internal/server"
)

// The coherence contract of the invalidation feed, (a)–(g) of ISSUE 22.
// Tests against real workers wait for a named event (awaitVersion,
// awaitFeed), never for time to pass; the scripted feedWorker makes the
// orderings a real worker only produces by chance deterministic.

// waitFor polls cond until it holds or 10 s pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitFeed waits until the router's feed from the peer is live.
func awaitFeed(t *testing.T, rt *Router, peerURL string) {
	t.Helper()
	waitFor(t, "feed of "+peerURL, func() bool {
		live, _ := rt.peers[peerURL].feedStatus(time.Now())
		return live
	})
}

// seenVersion is the newest version of the graph the router has heard of.
func seenVersion(rt *Router, peerURL, name string) uint64 {
	p := rt.peers[peerURL]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.feed.latest[name]
}

// awaitVersion waits until the router has heard of version v of the graph.
func awaitVersion(t *testing.T, rt *Router, peerURL, name string, v uint64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("version %d of %s", v, name), func() bool {
		return seenVersion(rt, peerURL, name) >= v
	})
}

// forwards reads the router's forward counter for one worker.
func forwards(rt *Router, peerURL string) int64 { return rt.peers[peerURL].forwards.Value() }

type response struct {
	status      int
	etag, ctype string
	version     uint64 // of the worker's version header; 0 through a router
	body        []byte
}

// fetch GETs url, conditionally when ifNoneMatch is set.
func fetch(t *testing.T, url, ifNoneMatch string) response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := strconv.ParseUint(resp.Header.Get(httpcache.VersionHeader), 10, 64)
	return response{resp.StatusCode, resp.Header.Get("ETag"), resp.Header.Get("Content-Type"), v, body}
}

// send issues a bodied or bodiless request and returns the status.
func send(t *testing.T, method, url, body string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// layJob runs a layout job for the graph straight at the worker and waits
// for its view to be installed (stats stops answering 409 / changes ETag).
func layJob(t *testing.T, workerURL, name string, seed int) {
	t.Helper()
	before := fetch(t, workerURL+"/graphs/"+name+"/stats", "")
	if code := send(t, http.MethodPost, workerURL+"/jobs",
		fmt.Sprintf(`{"graph":%q,"subspace":6,"seed":%d}`, name, seed)); code != http.StatusAccepted {
		t.Fatalf("submit for %s: status %d", name, code)
	}
	waitFor(t, "install of "+name, func() bool {
		r := fetch(t, workerURL+"/graphs/"+name+"/stats", "")
		return r.status == http.StatusOK && r.etag != before.etag
	})
}

// replaceWithItself moves a graph's catalog generation on the worker and
// leaves the graph as it is.
func replaceWithItself(t *testing.T, s *server.Server, name string) {
	t.Helper()
	g, ok := s.Catalog().Get(name)
	if !ok {
		t.Fatalf("no graph %q", name)
	}
	if err := s.Catalog().Replace(name, g); err != nil {
		t.Fatal(err)
	}
}

// gridEdges is a small upload body.
func gridEdges(t *testing.T, side int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, gen.Grid2D(side, side)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFeedLiveReadsStayInRouter is (a): with the feed live, 100
// conditional and 20 plain GETs of a cached tile reach the worker once —
// the fetch that cached it — and router_forward_total stays flat.
func TestFeedLiveReadsStayInRouter(t *testing.T) {
	_, w1 := newWorker(t, "w1")
	rt, rts := newRouter(t, 1, w1.URL)
	awaitFeed(t, rt, w1.URL)

	url := rts.URL + "/graphs/default/layout.png"
	first := fetch(t, url, "")
	if first.status != http.StatusOK || first.etag == "" {
		t.Fatalf("warming read: %d %q", first.status, first.etag)
	}
	base := forwards(rt, w1.URL)
	workerSaw := metricValue(t, w1.URL, `http_requests_total{route="/graphs/",code=`)
	for i := 0; i < 100; i++ {
		if r := fetch(t, url, first.etag); r.status != http.StatusNotModified || len(r.body) != 0 {
			t.Fatalf("conditional read %d: status %d, %d bytes", i, r.status, len(r.body))
		}
	}
	for i := 0; i < 20; i++ {
		if r := fetch(t, url, ""); r.status != http.StatusOK || r.etag != first.etag || !bytes.Equal(r.body, first.body) {
			t.Fatalf("plain read %d: status %d etag %q", i, r.status, r.etag)
		}
	}
	if got := forwards(rt, w1.URL); got != base {
		t.Errorf("router_forward_total moved by %d over 120 reads of a current tile", got-base)
	}
	if got := metricValue(t, w1.URL, `http_requests_total{route="/graphs/",code=`); got != workerSaw {
		t.Errorf("the worker served %g reads of the tile after the first", got-workerSaw)
	}
	if got := rt.revalidations.Value(); got != 0 {
		t.Errorf("router_revalidations_total = %d with the feed live", got)
	}
	if got := metricValue(t, rts.URL, "router_feed_connected"); got != 1 {
		t.Errorf("router_feed_connected = %g", got)
	}
}

// TestFeedChangesForceForward is (b): each way a graph's picture can
// change on the worker — made at the worker, behind the router's back —
// turns the next read through the router into a forward that returns what
// the worker now serves.
func TestFeedChangesForceForward(t *testing.T) {
	// A catalog budget of three 12×12 grids: default (pinned), the graph
	// under test, and room for one more before an upload evicts.
	budget := catalog.GraphBytes(gen.Grid2D(12, 12)) * 7 / 2
	s1, err := server.NewWithConfig(gen.Grid2D(12, 12), core.Options{Subspace: 8, Seed: 1},
		server.Config{WorkerID: "w1", Workers: 1, QueueDepth: 8, CatalogBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	w1 := httptest.NewServer(s1.Handler())
	t.Cleanup(func() { w1.Close(); s1.Close() })
	rt, rts := newRouter(t, 1, w1.URL)
	awaitFeed(t, rt, w1.URL)

	const name = "g"
	upload := func() {
		t.Helper()
		if code := send(t, http.MethodPost, w1.URL+"/graphs?name="+name+"&format=edges", gridEdges(t, 12)); code != http.StatusCreated {
			t.Fatalf("upload: status %d", code)
		}
	}
	upload()
	layJob(t, w1.URL, name, 1)

	path := "/graphs/" + name + "/stats"
	// settle reads through the router once the router has heard of the
	// graph's newest version, so that the step that follows starts from a
	// trusted tile (when the graph has a picture at all).
	settle := func() response {
		t.Helper()
		direct := fetch(t, w1.URL+path, "")
		awaitVersion(t, rt, w1.URL, name, direct.version)
		fetch(t, rts.URL+path, "")
		before := forwards(rt, w1.URL)
		r := fetch(t, rts.URL+path, "")
		if r.status == http.StatusOK && forwards(rt, w1.URL) != before {
			t.Fatalf("tile of %s not trusted after a fetch at the newest version", name)
		}
		return r
	}
	for _, step := range []struct {
		what   string
		change func()
		status int
	}{
		{"install", func() { layJob(t, w1.URL, name, 2) }, http.StatusOK},
		{"PATCH", func() {
			before := fetch(t, w1.URL+path, "")
			if code := send(t, http.MethodPatch, w1.URL+"/graphs/"+name, `{"mutations":[{"op":"addEdge","u":0,"v":77}]}`); code != http.StatusAccepted {
				t.Fatalf("PATCH: status %d", code)
			}
			// The refinement it queued installs on its own time; let it, so
			// the comparison below is against a worker at rest.
			waitFor(t, "refinement install", func() bool {
				return viewGen(fetch(t, w1.URL+path, "").etag) != viewGen(before.etag)
			})
		}, http.StatusOK},
		{"Replace", func() { replaceWithItself(t, s1, name) }, http.StatusOK},
		{"delete", func() {
			if code := send(t, http.MethodDelete, w1.URL+"/graphs/"+name, ""); code != http.StatusNoContent {
				t.Fatalf("DELETE: status %d", code)
			}
		}, http.StatusNotFound},
		{"re-upload over the same name", upload, http.StatusConflict},
		{"catalog eviction", func() {
			layJob(t, w1.URL, name, 3)
			settle()
			// default is pinned and "other" is the newcomer: g is the victim.
			if code := send(t, http.MethodPost, w1.URL+"/graphs?name=other&format=edges", gridEdges(t, 12)); code != http.StatusCreated {
				t.Fatalf("evicting upload: status %d", code)
			}
			if code := send(t, http.MethodPost, w1.URL+"/graphs?name=other2&format=edges", gridEdges(t, 12)); code != http.StatusCreated {
				t.Fatalf("evicting upload: status %d", code)
			}
		}, http.StatusNotFound},
	} {
		old := settle()
		step.change()
		direct := fetch(t, w1.URL+path, "")
		if direct.status != step.status {
			t.Fatalf("%s: the worker answers %d, want %d", step.what, direct.status, step.status)
		}
		awaitVersion(t, rt, w1.URL, name, direct.version)
		before := forwards(rt, w1.URL)
		got := fetch(t, rts.URL+path, "")
		if forwards(rt, w1.URL) != before+1 {
			t.Errorf("%s: the next read made %d forwards, want 1", step.what, forwards(rt, w1.URL)-before)
		}
		if got.status != direct.status || got.etag != direct.etag || !bytes.Equal(got.body, direct.body) {
			t.Errorf("%s: router served %d %q, the worker serves %d %q", step.what, got.status, got.etag, direct.status, direct.etag)
		}
		if got.status == http.StatusOK && got.etag == old.etag {
			t.Errorf("%s: ETag %q did not move", step.what, got.etag)
		}
	}
}

// viewGen is the view-generation field of a worker ETag,
// "g:<name>:<viewGen>:<catalogGen>:<kind>:<boot>".
func viewGen(etag string) string {
	if parts := strings.Split(etag, ":"); len(parts) >= 5 {
		return parts[2]
	}
	return ""
}

// feedWorker is a scripted worker with a feed route: tiles are what the
// test sets, every feed connection is handed to the test, and nothing is
// written on it that the test did not ask for.
type feedWorker struct {
	ts *httptest.Server

	mu      sync.Mutex
	boot    string
	hbMs    int64
	noRoute bool // answer the feed route 404, as a worker older than the feed does
	tiles   map[string]fakeTile
	before  func(path string) // called before a tile is answered, outside mu

	gets  atomic.Int64   // tile requests answered
	conns chan *feedConn // accepted feed connections, hello already written
}

type fakeTile struct {
	version uint64
	body    string
}

// feedConn is one accepted feed connection.
type feedConn struct {
	frames chan httpcache.Frame
	hangup chan struct{}
}

func newFeedWorker(t *testing.T, id string) *feedWorker {
	t.Helper()
	fw := &feedWorker{boot: "boot-1", hbMs: 60_000, tiles: map[string]fakeTile{}, conns: make(chan *feedConn, 8)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /shardz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"worker":%q,"ready":true}`, id)
	})
	mux.HandleFunc("GET "+httpcache.FeedPath, func(w http.ResponseWriter, r *http.Request) {
		fw.mu.Lock()
		hello, noRoute := httpcache.Frame{Boot: fw.boot, HeartbeatMs: fw.hbMs}, fw.noRoute
		fw.mu.Unlock()
		if noRoute {
			http.NotFound(w, r)
			return
		}
		enc := json.NewEncoder(w)
		_ = enc.Encode(hello)
		w.(http.Flusher).Flush()
		c := &feedConn{frames: make(chan httpcache.Frame), hangup: make(chan struct{})}
		fw.conns <- c
		for {
			select {
			case fr := <-c.frames:
				_ = enc.Encode(fr)
				w.(http.Flusher).Flush()
			case <-c.hangup:
				return
			case <-r.Context().Done():
				return
			}
		}
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fw.mu.Lock()
		before := fw.before
		fw.mu.Unlock()
		if before != nil {
			before(r.URL.Path)
		}
		fw.mu.Lock()
		tile, ok := fw.tiles[r.URL.Path]
		fw.mu.Unlock()
		fw.gets.Add(1)
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(httpcache.VersionHeader, strconv.FormatUint(tile.version, 10))
		httpcache.WriteRevalidated(w, r, `"`+tile.body+`"`, "text/plain", []byte(tile.body))
	})
	fw.ts = httptest.NewServer(mux)
	t.Cleanup(fw.ts.Close)
	return fw
}

func (fw *feedWorker) set(path string, version uint64, body string) {
	fw.mu.Lock()
	fw.tiles[path] = fakeTile{version, body}
	fw.mu.Unlock()
}

// conn returns the next feed connection the router opened.
func (fw *feedWorker) conn(t *testing.T) *feedConn {
	t.Helper()
	select {
	case c := <-fw.conns:
		return c
	case <-time.After(10 * time.Second):
		t.Fatal("the router did not open a feed")
		return nil
	}
}

// readVia GETs a path through the router and reports the body and how
// many requests it cost the worker.
func (fw *feedWorker) readVia(t *testing.T, routerURL, path string) (string, int64) {
	t.Helper()
	before := fw.gets.Load()
	r := fetch(t, routerURL+path, "")
	return string(r.body), fw.gets.Load() - before
}

// TestFeedFetchInvalidateRace is (c): the change overtakes a fetch in
// flight — the frame reaches the router before the worker's answer, which
// still carries the old version and the old bytes. That caller may get
// the stale body; nobody after it does.
func TestFeedFetchInvalidateRace(t *testing.T) {
	fw := newFeedWorker(t, "w1")
	rt, rts := newRouter(t, 1, fw.ts.URL)
	c := fw.conn(t)
	awaitFeed(t, rt, fw.ts.URL)

	const path = "/graphs/g/layout.png"
	fw.set(path, 1, "old")
	fw.mu.Lock()
	fw.before = func(string) {
		// The GET is in the worker; the change happens and its frame is
		// delivered before the answer leaves.
		fw.mu.Lock()
		fw.before = nil
		fw.mu.Unlock()
		c.frames <- httpcache.Frame{Graph: "g", Version: 2}
		awaitVersion(t, rt, fw.ts.URL, "g", 2)
	}
	fw.mu.Unlock()

	if body, _ := fw.readVia(t, rts.URL, path); body != "old" {
		t.Fatalf("in-flight read got %q", body)
	}
	fw.set(path, 2, "new")
	if body, cost := fw.readVia(t, rts.URL, path); body != "new" || cost != 1 {
		t.Fatalf("read after the race: %q at %d forwards; the overtaken tile was cached as current", body, cost)
	}
	if body, cost := fw.readVia(t, rts.URL, path); body != "new" || cost != 0 {
		t.Fatalf("read of the refetched tile: %q at %d forwards, want a trusted hit", body, cost)
	}
}

// TestFeedMonotonicReads is (d): a response carrying version 2 on one
// view of a graph untrusts a version-1 tile of another view, with no
// frame: once a client has seen V, this router shows nobody anything
// older.
func TestFeedMonotonicReads(t *testing.T) {
	fw := newFeedWorker(t, "w1")
	rt, rts := newRouter(t, 1, fw.ts.URL)
	fw.conn(t)
	awaitFeed(t, rt, fw.ts.URL)

	fw.set("/graphs/g/layout.png", 1, "picture-1")
	fw.set("/graphs/g/stats", 1, "stats-1")
	fw.readVia(t, rts.URL, "/graphs/g/layout.png")
	fw.readVia(t, rts.URL, "/graphs/g/stats")
	if _, cost := fw.readVia(t, rts.URL, "/graphs/g/layout.png"); cost != 0 {
		t.Fatalf("warm picture cost %d forwards", cost)
	}

	// The graph moves to version 2; the frame is lost in the test's hands,
	// and only an uncached stats read tells the router.
	fw.set("/graphs/g/layout.png", 2, "picture-2")
	fw.set("/graphs/g/stats", 2, "stats-2")
	if body, cost := fw.readVia(t, rts.URL, "/graphs/g/stats?fresh=1"); body != "stats-2" || cost != 1 {
		t.Fatalf("uncached stats read: %q at %d forwards", body, cost)
	}
	if body, cost := fw.readVia(t, rts.URL, "/graphs/g/layout.png"); body != "picture-2" || cost != 1 {
		t.Fatalf("picture after stats showed version 2: %q at %d forwards, want picture-2 at 1", body, cost)
	}
	if body, cost := fw.readVia(t, rts.URL, "/graphs/g/stats"); body != "stats-2" || cost != 1 {
		t.Fatalf("cached stats after version 2: %q at %d forwards", body, cost)
	}
}

// TestFeedLossFallsBackToRevalidation is (e): however the feed is lost,
// every read goes back to asking the worker, and a reconnect restores
// trust only tile by tile, as each is fetched again.
func TestFeedLossFallsBackToRevalidation(t *testing.T) {
	const a, b = "/graphs/g/layout.png", "/graphs/g/stats"
	// warm builds a fleet whose router holds tiles a and b, fetched with the
	// feed live.
	warm := func(t *testing.T, heartbeatMs int64) (*feedWorker, *Router, string, *feedConn) {
		fw := newFeedWorker(t, "w1")
		fw.mu.Lock()
		fw.hbMs = heartbeatMs
		fw.mu.Unlock()
		rt, rts := newRouter(t, 1, fw.ts.URL)
		c := fw.conn(t)
		awaitFeed(t, rt, fw.ts.URL)
		fw.set(a, 1, "a1")
		fw.set(b, 1, "b1")
		fw.readVia(t, rts.URL, a)
		fw.readVia(t, rts.URL, b)
		return fw, rt, rts.URL, c
	}
	// keepAlive heartbeats the connection until the test is over.
	keepAlive := func(t *testing.T, c *feedConn) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case c.frames <- httpcache.Frame{}:
				case <-stop:
					return
				}
				select {
				case <-time.After(5 * time.Millisecond):
				case <-stop:
					return
				}
			}
		}()
		t.Cleanup(func() { close(stop); wg.Wait() })
	}
	// redial plays the health loop's tick until the router has a new feed
	// connection open.
	redial := func(t *testing.T, rt *Router, fw *feedWorker) {
		t.Helper()
		waitFor(t, "redial", func() bool {
			rt.probeAll()
			select {
			case <-fw.conns:
				return true
			default:
				return false
			}
		})
		awaitFeed(t, rt, fw.ts.URL)
	}
	revalidates := func(t *testing.T, fw *feedWorker, routerURL string) {
		t.Helper()
		for i := 0; i < 3; i++ {
			if body, cost := fw.readVia(t, routerURL, a); body != "a1" || cost != 1 {
				t.Fatalf("read %d with the feed down: %q at %d forwards, want a1 revalidated at 1", i, body, cost)
			}
		}
	}
	down := func(t *testing.T, rt *Router, fw *feedWorker) {
		t.Helper()
		waitFor(t, "feed down", func() bool {
			live, _ := rt.peers[fw.ts.URL].feedStatus(time.Now())
			return !live
		})
	}

	t.Run("EOF mid-stream, then reconnect", func(t *testing.T) {
		fw, rt, url, c := warm(t, 60_000)
		if _, cost := fw.readVia(t, url, a); cost != 0 {
			t.Fatalf("warm tile cost %d forwards", cost)
		}
		close(c.hangup)
		down(t, rt, fw)
		revalidates(t, fw, url)
		if got := metricValue(t, url, "router_feed_connected"); got != 0 {
			t.Errorf("router_feed_connected = %g after EOF", got)
		}
		if got := rt.revalidations.Value(); got < 3 {
			t.Errorf("router_revalidations_total = %d after three revalidated reads", got)
		}

		redial(t, rt, fw)
		// Both tiles predate the reconnect: each is asked about once, then
		// trusted again.
		for _, path := range []string{a, b} {
			if _, cost := fw.readVia(t, url, path); cost != 1 {
				t.Errorf("first read of %s after reconnect cost %d forwards, want 1", path, cost)
			}
			if _, cost := fw.readVia(t, url, path); cost != 0 {
				t.Errorf("second read of %s after reconnect cost %d forwards, want 0", path, cost)
			}
		}
	})

	t.Run("heartbeat silence", func(t *testing.T) {
		// The worker promises a frame every 50 ms and then writes nothing:
		// 100 ms later the feed is not live, open as the connection is.
		fw, rt, url, c := warm(t, 50)
		down(t, rt, fw)
		revalidates(t, fw, url)
		// The same connection speaking again lost nothing: trust resumes,
		// for the tiles revalidated meanwhile and the one that was not.
		keepAlive(t, c)
		awaitFeed(t, rt, fw.ts.URL)
		for _, path := range []string{a, b} {
			if _, cost := fw.readVia(t, url, path); cost != 0 {
				t.Errorf("read of %s after the heartbeat resumed cost %d forwards", path, cost)
			}
		}
	})

	t.Run("boot id changed on reconnect", func(t *testing.T) {
		fw, rt, url, c := warm(t, 60_000)
		fw.mu.Lock()
		fw.boot = "boot-2"
		fw.mu.Unlock()
		close(c.hangup)
		down(t, rt, fw)
		redial(t, rt, fw)
		if _, boot := rt.peers[fw.ts.URL].feedStatus(time.Now()); boot != "boot-2" {
			t.Fatalf("router knows boot %q", boot)
		}
		// A restarted worker's generations start over, so an old tile's ETag
		// proves nothing about the new boot's bytes: it is dropped, not
		// revalidated.
		if _, ok := rt.cache.Peek(a); ok {
			t.Error("a tile of the previous boot survived the restart")
		}
		if body, cost := fw.readVia(t, url, a); body != "a1" || cost != 1 {
			t.Errorf("first read after restart: %q at %d forwards", body, cost)
		}
		if _, cost := fw.readVia(t, url, a); cost != 0 {
			t.Errorf("second read after restart cost %d forwards", cost)
		}
	})

	t.Run("worker without the route", func(t *testing.T) {
		fw := newFeedWorker(t, "w1")
		fw.mu.Lock()
		fw.noRoute = true
		fw.mu.Unlock()
		rt, rts := newRouter(t, 1, fw.ts.URL)
		fw.set(a, 1, "a1")
		fw.readVia(t, rts.URL, a)
		waitFor(t, "feed attempt over", func() bool {
			p := rt.peers[fw.ts.URL]
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.feed.cancel == nil
		})
		revalidates(t, fw, rts.URL)
	})
}

// TestFeedTwoRoutersCoherent is (f): two routers over one fleet. A PATCH
// through A is read fresh through B as soon as B's frame has landed; A,
// which relayed it, does not wait for its own.
func TestFeedTwoRoutersCoherent(t *testing.T) {
	_, w1 := newWorker(t, "w1")
	rtA, a := newRouter(t, 1, w1.URL)
	rtB, b := newRouter(t, 1, w1.URL)
	awaitFeed(t, rtA, w1.URL)
	awaitFeed(t, rtB, w1.URL)

	const path = "/graphs/default/stats"
	oldA, oldB := fetch(t, a.URL+path, ""), fetch(t, b.URL+path, "")
	if oldA.status != http.StatusOK || oldA.etag != oldB.etag {
		t.Fatalf("warming reads: %d %q vs %q", oldA.status, oldA.etag, oldB.etag)
	}
	if code := send(t, http.MethodPatch, a.URL+"/graphs/default", `{"mutations":[{"op":"addEdge","u":0,"v":77}]}`); code != http.StatusAccepted {
		t.Fatalf("PATCH through A: status %d", code)
	}
	// Read-your-writes through A needs no frame: the relay dropped the tile.
	if got := fetch(t, a.URL+path, ""); got.etag == oldA.etag {
		t.Errorf("A served the pre-PATCH tile %q to the client that PATCHed", got.etag)
	}
	direct := fetch(t, w1.URL+path, "")
	awaitVersion(t, rtB, w1.URL, "default", direct.version)
	before := forwards(rtB, w1.URL)
	got := fetch(t, b.URL+path, "")
	now := fetch(t, w1.URL+path, "")
	if got.etag == oldB.etag || (got.etag != direct.etag && got.etag != now.etag) {
		t.Errorf("B served %q after its frame landed; the worker serves %q", got.etag, now.etag)
	}
	if forwards(rtB, w1.URL) != before+1 {
		t.Errorf("B answered a changed graph without asking")
	}
}

// TestFeedOwnerOnlyAndDefaultAliases is (g): every worker pins its own
// "default", so only the ring owner's frames count for it; and a tile
// knows its graph, so /layout.png goes with /graphs/default/layout.png.
func TestFeedOwnerOnlyAndDefaultAliases(t *testing.T) {
	s1, w1 := newWorker(t, "w1")
	s2, w2 := newWorker(t, "w2")
	rt, rts := newRouter(t, 1, w1.URL, w2.URL)
	awaitFeed(t, rt, w1.URL)
	awaitFeed(t, rt, w2.URL)
	owner, other, sOwner, sOther := w1.URL, w2.URL, s1, s2
	if rt.ring.Owner(defaultGraph) == w2.URL {
		owner, other, sOwner, sOther = w2.URL, w1.URL, s2, s1
	}
	aliases := []string{"/layout.png", "/graphs/default/layout.png"}
	warm := func() {
		t.Helper()
		for _, path := range aliases {
			fetch(t, rts.URL+path, "")
		}
		before := forwards(rt, owner)
		for _, path := range aliases {
			fetch(t, rts.URL+path, "")
		}
		if forwards(rt, owner) != before {
			t.Fatal("default's tiles not trusted after warming")
		}
	}
	warm()

	// The non-owner's default changes. Frames arrive in order, so once a
	// later frame of a graph the non-owner does own has landed, the
	// default frame has been seen — and ignored.
	mine := nameOwnedBy(t, rt.ring, other)
	if err := sOther.Catalog().Add(mine, gen.Grid2D(4, 4), "test"); err != nil {
		t.Fatal(err)
	}
	replaceWithItself(t, sOther, defaultGraph)
	replaceWithItself(t, sOther, mine)
	awaitVersion(t, rt, other, mine, fetch(t, other+"/graphs/"+mine+"/stats", "").version)
	if v := seenVersion(rt, other, defaultGraph); v != 0 {
		t.Errorf("the non-owner's default frame was recorded (version %d)", v)
	}
	before := forwards(rt, owner)
	for _, path := range aliases {
		fetch(t, rts.URL+path, "")
	}
	if forwards(rt, owner) != before {
		t.Error("a non-owner's default frame untrusted the owner's tiles")
	}

	// The owner's default changes: both aliases go.
	replaceWithItself(t, sOwner, defaultGraph)
	awaitVersion(t, rt, owner, defaultGraph, fetch(t, owner+"/stats", "").version)
	for _, path := range aliases {
		before := forwards(rt, owner)
		fetch(t, rts.URL+path, "")
		if forwards(rt, owner) != before+1 {
			t.Errorf("%s was answered from the cache after default changed", path)
		}
	}

	// And a relayed change drops both, frame or no frame.
	warm()
	if code := send(t, http.MethodPatch, rts.URL+"/graphs/default", `{"mutations":[{"op":"addEdge","u":0,"v":77}]}`); code != http.StatusAccepted {
		t.Fatalf("PATCH default: status %d", code)
	}
	for _, path := range aliases {
		if _, ok := rt.cache.Peek(path); ok {
			t.Errorf("%s outlived a PATCH of default relayed by this router", path)
		}
	}
}

// TestRouterTileFollowsWorkerRestart: a worker restarted at the same address
// on another startup graph renders it under the key the previous boot used
// (its generations start over). Before the router's feed redials — the
// window in which a cached tile is revalidated, not dropped — the router
// must still answer the new graph's bytes, not re-stamp its old tile on a
// 304.
func TestRouterTileFollowsWorkerRestart(t *testing.T) {
	boot := func(g *graph.CSR, addr string) (*server.Server, *httptest.Server) {
		t.Helper()
		s, err := server.NewWithConfig(g, core.Options{Subspace: 8, Seed: 1}, server.Config{WorkerID: "w1", Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", addr)
		if err != nil {
			s.Close()
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Listener.Close()
		ts.Listener = l
		ts.Start()
		return s, ts
	}
	s1, w1 := boot(gen.Grid2D(12, 12), "127.0.0.1:0")
	// No keep-alives: the restarted worker is reached on a fresh connection,
	// never on one the old process closed.
	rt, err := NewRouter(Config{Peers: []string{w1.URL}, HealthInterval: time.Hour,
		Client: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { rts.Close(); rt.Close() })
	awaitFeed(t, rt, w1.URL)

	const path = "/layout.png"
	before := fetch(t, rts.URL+path, "")
	if before.status != http.StatusOK {
		t.Fatalf("warming read: status %d", before.status)
	}
	s1.Hangup() // the feed ends now, not at Close's leisure
	w1.Close()
	s1.Close()
	waitFor(t, "feed down", func() bool {
		live, _ := rt.peers[w1.URL].feedStatus(time.Now())
		return !live
	})

	s2, w2 := boot(gen.Grid2D(10, 10), strings.TrimPrefix(w1.URL, "http://"))
	t.Cleanup(func() { s2.Hangup(); w2.Close(); s2.Close() })
	direct := fetch(t, w2.URL+path, "")
	if direct.status != http.StatusOK || bytes.Equal(direct.body, before.body) {
		t.Fatalf("the restarted worker serves %d, same bytes as before: %v", direct.status, bytes.Equal(direct.body, before.body))
	}
	got := fetch(t, rts.URL+path, "")
	if got.status != http.StatusOK || !bytes.Equal(got.body, direct.body) {
		t.Errorf("router served %d, %d bytes (the pre-restart tile: %v); the worker serves %d bytes",
			got.status, len(got.body), bytes.Equal(got.body, before.body), len(direct.body))
	}
}

// TestRouterPassesWorkerErrorsThrough: a worker's 404 and 409 on a cached
// view reach the client as the worker wrote them, envelope and all.
func TestRouterPassesWorkerErrorsThrough(t *testing.T) {
	_, w1 := newWorker(t, "w1")
	_, rts := newRouter(t, 1, w1.URL)
	uploadVia(t, rts.URL, "bare") // known, never laid out: 409
	for path, want := range map[string]int{
		"/graphs/nope/stats":      http.StatusNotFound,
		"/graphs/bare/layout.png": http.StatusConflict,
	} {
		direct, via := fetch(t, w1.URL+path, ""), fetch(t, rts.URL+path, "")
		if direct.status != want || via.status != want {
			t.Fatalf("%s: worker %d, router %d, want %d", path, direct.status, via.status, want)
		}
		if !bytes.Equal(via.body, direct.body) || via.ctype != direct.ctype {
			t.Errorf("%s: router wrote %q (%s), the worker wrote %q (%s)", path, via.body, via.ctype, direct.body, direct.ctype)
		}
	}
}
