package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/httpcache"
)

// feedClient reads frames off one /invalidations connection.
type feedClient struct {
	resp   *http.Response
	dec    *json.Decoder
	cancel context.CancelFunc
	hello  httpcache.Frame
}

func dialFeed(t *testing.T, url string) *feedClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+httpcache.FeedPath+"?heartbeat=20ms", nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	c := &feedClient{resp: resp, dec: json.NewDecoder(resp.Body), cancel: cancel}
	t.Cleanup(c.close)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feed status %d", resp.StatusCode)
	}
	if err := c.dec.Decode(&c.hello); err != nil || c.hello.Boot == "" || c.hello.HeartbeatMs != 20 {
		t.Fatalf("hello = %+v, %v; want a boot id and the 20 ms heartbeat asked for", c.hello, err)
	}
	return c
}

func (c *feedClient) close() {
	c.cancel()
	c.resp.Body.Close()
}

// next returns the next change frame, skipping heartbeats.
func (c *feedClient) next(t *testing.T) httpcache.Frame {
	t.Helper()
	for {
		var fr httpcache.Frame
		if err := c.dec.Decode(&fr); err != nil {
			t.Fatalf("feed read: %v", err)
		}
		if fr.Graph != "" {
			return fr
		}
	}
}

// headerVersion GETs a view of the graph and returns the version stamped
// on the answer, whatever its status.
func headerVersion(t *testing.T, url, name string) uint64 {
	t.Helper()
	resp, err := http.Get(url + "/graphs/" + name + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	v, err := strconv.ParseUint(resp.Header.Get(httpcache.VersionHeader), 10, 64)
	if err != nil {
		t.Fatalf("status %d carries version header %q", resp.StatusCode, resp.Header.Get(httpcache.VersionHeader))
	}
	return v
}

// replaceWithItself moves the named graph's catalog generation and leaves
// the graph as it is: Replace with the graph the entry already holds.
func replaceWithItself(t *testing.T, cat *catalog.Catalog, name string) {
	t.Helper()
	g, ok := cat.Get(name)
	if !ok {
		t.Fatalf("no graph %q", name)
	}
	if err := cat.Replace(name, g); err != nil {
		t.Fatal(err)
	}
}

// TestFeedFramesCoverEveryChange: whatever moves a view's ETag — or takes
// the view away — puts a frame on the feed whose version is the one the
// worker then stamps on its responses, and a graph's versions only grow.
func TestFeedFramesCoverEveryChange(t *testing.T) {
	small := gen.Grid2D(8, 8)
	s, ts := newTestServerPair(t, Config{Workers: 1,
		CatalogBytes: catalog.GraphBytes(gen.PlateWithHoles(30, 30)) + 2*catalog.GraphBytes(small) + catalog.GraphBytes(small)/2})
	c := dialFeed(t, ts.URL)

	var edges bytes.Buffer
	if err := graph.WriteEdgeList(&edges, small); err != nil {
		t.Fatal(err)
	}
	upload := func(name string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/graphs?name="+name+"&format=edges", "text/plain", bytes.NewReader(edges.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: status %d", name, resp.StatusCode)
		}
	}
	last := map[string]uint64{}
	// caughtUp reads the feed until it has delivered the version the worker
	// now stamps on the graph's responses, checking growth on the way.
	caughtUp := func(what, name string) {
		t.Helper()
		want := headerVersion(t, ts.URL, name)
		if want <= last[name] {
			t.Fatalf("%s: responses of %s still carry version %d", what, name, want)
		}
		for last[name] < want {
			fr := c.next(t)
			if fr.Version <= last[fr.Graph] {
				t.Fatalf("%s: frame %+v after version %d", what, fr, last[fr.Graph])
			}
			last[fr.Graph] = fr.Version
		}
		if last[name] != want {
			t.Fatalf("%s: feed is at version %d of %s, responses carry %d", what, last[name], name, want)
		}
	}

	upload("g")
	caughtUp("upload", "g")
	id := submitJob(t, ts.URL, "g", 6)
	waitJobState(t, ts.URL, id, "done")
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, _, laidOut := s.viewOf("g"); laidOut {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job done but never installed")
		}
	}
	caughtUp("install", "g")
	replaceWithItself(t, s.cat, "g")
	caughtUp("Replace", "g")
	before, _, _ := s.viewOf("g")
	if code, b := patchGraph(t, ts.URL, "g", `{"mutations":[{"op":"addEdge","u":0,"v":27}]}`); code != http.StatusAccepted {
		t.Fatalf("PATCH: %d %s", code, b)
	}
	// The refinement the PATCH queued installs on its own time.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if v, _, _ := s.viewOf("g"); v != before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("refinement never installed")
		}
	}
	caughtUp("PATCH and its refinement install", "g")

	// Eviction: g is the least recently used unpinned entry once "h" has
	// been added and a third small graph does not fit.
	upload("h")
	upload("i")
	if _, ok := s.cat.Get("g"); ok {
		t.Fatal("g was not evicted; the budget in this test is off")
	}
	caughtUp("eviction", "g")
	// The next view request notices the catalog dropped g and releases the
	// view — one more change, because until then the view was servable.
	caughtUp("view release", "g")

	upload("g")
	caughtUp("upload over an evicted name", "g")
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/g", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	if got, _ := strconv.ParseUint(resp.Header.Get(httpcache.VersionHeader), 10, 64); got <= last["g"] {
		t.Errorf("DELETE answer carries version %d, no newer than %d", got, last["g"])
	}
	caughtUp("delete", "g")
}

// TestFeedSlowRouterCutOff is (h): a router that stops reading its feed is
// disconnected, and never delays an install.
func TestFeedSlowRouterCutOff(t *testing.T) {
	s, ts := newTestServerPair(t, Config{})

	// A subscriber that never drains: the frame that does not fit closes its
	// channel; every install returns, which a blocking send would not.
	frames, unsubscribe := s.feed.subscribe(s.feed.routers)
	defer unsubscribe()
	v, _, _ := s.viewOf(DefaultGraph)
	for i := 0; i <= feedBuffer; i++ {
		s.install(v.name, v.g, v.layout, v.report, v.opt, core.Quality{}, "")
	}
	n := 0
	for range frames { // ends only because the channel was closed
		n++
	}
	if n != feedBuffer {
		t.Errorf("subscriber got %d frames before it was cut off, want %d", n, feedBuffer)
	}
	if got := s.feed.routers.dropped.Value(); got != 1 {
		t.Errorf("invalidations_dropped_total = %d, want 1", got)
	}
	if got := s.feed.routers.subscribers.Value(); got != 0 {
		t.Errorf("invalidation_subscribers = %d after the cut", got)
	}

	// The same over a real connection: the client reads the hello and
	// nothing more. Changes keep flowing at full speed; once the socket
	// buffers are full the worker drops the connection.
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.(*net.TCPConn).SetReadBuffer(4 << 10) // fill up sooner
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: worker\r\n\r\n", httpcache.FeedPath)
	br := bufio.NewReader(conn)
	for { // response head, chunk size, hello
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading the hello: %v", err)
		}
		if strings.HasPrefix(line, `{"boot"`) {
			break
		}
	}
	if got := s.feed.routers.subscribers.Value(); got != 1 {
		t.Fatalf("invalidation_subscribers = %d with one feed open", got)
	}
	for deadline := time.Now().Add(30 * time.Second); s.feed.routers.subscribers.Value() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("a feed nobody reads is still subscribed after 30 s of changes")
		}
		for i := 0; i < 1000; i++ {
			replaceWithItself(t, s.cat, DefaultGraph)
		}
	}
}

// TestFeedChurnNoGoroutineLeak is TestStreamSoakNoGoroutineLeak's sibling
// for the invalidation feed: routers connect, hear changes and go away,
// and the handler goroutines unwind (run under -race in CI).
func TestFeedChurnNoGoroutineLeak(t *testing.T) {
	s, ts := newTestServerPair(t, Config{})
	before := runtime.NumGoroutine()

	for round := 0; round < 3; round++ {
		clients := make([]*feedClient, 6)
		for i := range clients {
			clients[i] = dialFeed(t, ts.URL)
		}
		if got := s.feed.routers.subscribers.Value(); got != int64(len(clients)) {
			t.Fatalf("round %d: invalidation_subscribers = %d, want %d", round, got, len(clients))
		}
		replaceWithItself(t, s.cat, DefaultGraph)
		v := headerVersion(t, ts.URL, DefaultGraph)
		for i, c := range clients {
			if fr := c.next(t); fr.Graph != DefaultGraph || fr.Version != v {
				t.Fatalf("round %d client %d: frame %+v, want default at %d", round, i, fr, v)
			}
			c.close()
		}
		// A handler hears its client hang up asynchronously: the round's
		// feeds must all unsubscribe before the next round counts its own.
		for deadline := time.Now().Add(10 * time.Second); s.feed.routers.subscribers.Value() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d feeds still subscribed 10 s after their clients left", round, s.feed.routers.subscribers.Value())
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		if s.feed.routers.subscribers.Value() == 0 && runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines: %d before, %d after disconnect; %d feeds still subscribed\n%s",
				before, runtime.NumGoroutine(), s.feed.routers.subscribers.Value(), buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
