package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

// sseClient reads events off one /stream connection.
type sseClient struct {
	resp   *http.Response
	br     *bufio.Reader
	cancel context.CancelFunc
}

func dialStream(t *testing.T, url, graph string) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/graphs/"+graph+"/stream", nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	c := &sseClient{resp: resp, br: bufio.NewReader(resp.Body), cancel: cancel}
	t.Cleanup(c.close)
	return c
}

func (c *sseClient) close() {
	c.cancel()
	c.resp.Body.Close()
}

// next blocks for the next SSE event, decoding its JSON payload.
func (c *sseClient) next(t *testing.T) (string, streamEvent) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	_ = c.resp.Body // the request context bounds reads; keep parsing simple
	var event string
	var data []byte
	for {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for SSE event")
		}
		line, err := c.br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && event != "":
			var ev streamEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				t.Fatalf("bad event payload %q: %v", data, err)
			}
			return event, ev
		}
	}
}

func patchGraph(t *testing.T, url, graph, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPatch, url+"/graphs/"+graph, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestMutateStreamMonotoneVersions is the end-to-end acceptance test: an
// SSE client sees a snapshot and then one monotonically-versioned
// coordinate delta per mutation batch, across three consecutive batches.
func TestMutateStreamMonotoneVersions(t *testing.T) {
	_, ts := newTestServerPair(t, Config{})
	c := dialStream(t, ts.URL, "default")

	event, snap := c.next(t)
	if event != "snapshot" || !snap.Full || snap.N == 0 || len(snap.Coords) != snap.N {
		t.Fatalf("first event = %q %+v, want full snapshot", event, snap)
	}
	last := snap.Version

	batches := []string{
		`{"mutations":[{"op":"addEdge","u":0,"v":47},{"op":"addEdge","u":1,"v":33}]}`,
		`{"mutations":[{"op":"delEdge","u":0,"v":47}]}`,
		`{"mutations":[{"op":"addVertices","count":1},{"op":"addEdge","u":0,"v":2}]}`,
	}
	for i, body := range batches {
		code, b := patchGraph(t, ts.URL, "default", body)
		if code != http.StatusAccepted {
			t.Fatalf("batch %d: status %d: %s", i, code, b)
		}
		event, ev := c.next(t)
		if event != "delta" {
			t.Fatalf("batch %d: event %q, want delta", i, event)
		}
		if ev.Version <= last {
			t.Fatalf("batch %d: version %d not greater than %d", i, ev.Version, last)
		}
		last = ev.Version
		if ev.Full {
			if len(ev.Coords) != ev.N {
				t.Fatalf("batch %d: full event carries %d rows for n=%d", i, len(ev.Coords), ev.N)
			}
		} else {
			if len(ev.Changed) == 0 || len(ev.Changed) != len(ev.Coords) {
				t.Fatalf("batch %d: delta with %d indices, %d rows", i, len(ev.Changed), len(ev.Coords))
			}
		}
	}
}

// TestStaleTileNeverServed is the cache-invalidation regression test: a
// cached tile must not be served once the graph's catalog generation
// moves — whether via a direct Replace or a PATCH mutation — even
// before a new layout installs.
func TestStaleTileNeverServed(t *testing.T) {
	s, ts := newTestServerPair(t, Config{})
	get := func() []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/graphs/default/layout.png")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	orig := get()
	renders := s.viewRenders.Value()
	get()
	if got := s.viewRenders.Value(); got != renders {
		t.Fatalf("second request re-rendered (%d → %d), want cache hit", renders, got)
	}
	// Replace with the same graph: same bytes, but the cached tile may no
	// longer be trusted; the server must re-render rather than serve the
	// old key.
	replaceWithItself(t, s.cat, "default")
	get()
	if got := s.viewRenders.Value(); got != renders+1 {
		t.Fatalf("post-Replace renders = %d, want %d (stale tile served?)", got, renders+1)
	}

	// PATCH: generation moves again; once the refinement installs, the
	// tile must re-render from the new layout and differ from the
	// original drawing.
	c := dialStream(t, ts.URL, "default")
	if ev, _ := c.next(t); ev != "snapshot" {
		t.Fatalf("expected snapshot, got %q", ev)
	}
	code, b := patchGraph(t, ts.URL, "default",
		`{"mutations":[{"op":"addEdge","u":0,"v":451},{"op":"addEdge","u":3,"v":333}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("patch status %d: %s", code, b)
	}
	c.next(t) // delta ⇒ new view installed
	after := get()
	if bytes.Equal(after, orig) {
		t.Fatal("tile unchanged after mutation + relayout")
	}
}

// TestRenderCacheBoundedOverPatchCycles: every PATCH and every install
// moves a generation in the cache key, so the tiles cached before it can
// never be asked for again. They are dropped then, not kept until the byte
// budget fills: over 200 PATCH → install → read cycles the cache holds the
// tiles of the current generation and no more.
func TestRenderCacheBoundedOverPatchCycles(t *testing.T) {
	s, ts := newTestServerPair(t, Config{})
	c := dialStream(t, ts.URL, "default")
	if ev, _ := c.next(t); ev != "snapshot" {
		t.Fatalf("expected snapshot, got %q", ev)
	}
	reads := []string{"/graphs/default/layout.png", "/graphs/default/zoom.png?v=0&hops=2", "/graphs/default/zoom.png?v=7&hops=2"}
	for i := 0; i < 200; i++ {
		op := "addEdge"
		if i%2 == 1 {
			op = "delEdge"
		}
		if code, b := patchGraph(t, ts.URL, "default", `{"mutations":[{"op":"`+op+`","u":0,"v":451}]}`); code != http.StatusAccepted {
			t.Fatalf("cycle %d: patch status %d: %s", i, code, b)
		}
		c.next(t) // delta ⇒ the refinement installed
		for _, path := range reads {
			if resp, _ := doReq(t, "GET", ts.URL+path); resp.StatusCode != http.StatusOK {
				t.Fatalf("cycle %d: GET %s: status %d", i, path, resp.StatusCode)
			}
		}
		if n := s.cache.Len(); n > len(reads) {
			t.Fatalf("cycle %d: render_cache_entries = %d with %d tiles current: superseded tiles are kept", i, n, len(reads))
		}
	}
	if hits := s.Metrics().Counter("render_cache_evictions_total").Value(); hits != 0 {
		t.Fatalf("%d budget evictions: the cache was bounded by its budget, not by the drop", hits)
	}
}

// TestMutateErrors is the degenerate-PATCH table: one row per edge case of
// the PATCH entry point, each with the status it must get. A rejected batch
// changes nothing — not the graph, its generation, its dynamic flag nor the
// mutation counter. An accepted one queues a refinement whose terminal state
// is pinned too, and a refinement that ends done installs a view with
// finite coordinates for every vertex.
func TestMutateErrors(t *testing.T) {
	s, ts := newTestServerPair(t, Config{})
	def, _ := s.cat.Get(DefaultGraph)
	if err := s.cat.Add("wg", def.WithUnitWeights(), "test"); err != nil {
		t.Fatal(err)
	}
	// A path: every inner vertex is a cut vertex. Laid out first, so its
	// refinement starts warm like the default graph's.
	uploadGraph(t, ts.URL, "path", pathGraph(200))
	waitJobState(t, ts.URL, submitJob(t, ts.URL, "path", 8), "done")
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, _, laidOut := s.viewOf("path"); laidOut {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the path's layout was never installed")
		}
	}
	if g, _ := s.cat.Get("path"); g.Degree(100) != 2 {
		t.Fatalf("vertex 100 of the path has degree %d", g.Degree(100))
	}

	cases := []struct {
		name, graph, body string
		want              int
		state             string // the refinement's terminal state, for a 202
		applied, vertices int    // the reply's counts, for a 202
	}{
		{name: "unknown graph", graph: "nope", body: `{"mutations":[{"op":"addEdge","u":0,"v":1}]}`, want: http.StatusNotFound},
		{name: "malformed body", graph: "default", body: `{"mutations":`, want: http.StatusBadRequest},
		{name: "unknown op", graph: "default", body: `{"mutations":[{"op":"recolor","u":0,"v":1}]}`, want: http.StatusBadRequest},
		{name: "empty batch", graph: "default", body: `{"mutations":[]}`, want: http.StatusBadRequest},
		{name: "self loop", graph: "default", body: `{"mutations":[{"op":"addEdge","u":4,"v":4}]}`, want: http.StatusBadRequest},
		{name: "out of range", graph: "default", body: `{"mutations":[{"op":"addEdge","u":0,"v":99999999}]}`, want: http.StatusBadRequest},
		{name: "out of range delVertex", graph: "default", body: `{"mutations":[{"op":"delVertex","u":-1}]}`, want: http.StatusBadRequest},
		{name: "addVertices 0", graph: "default", body: `{"mutations":[{"op":"addEdge","u":0,"v":2},{"op":"addVertices","count":0}]}`, want: http.StatusBadRequest},
		{name: "addVertices over 2^20", graph: "default", body: `{"mutations":[{"op":"addVertices","count":1048577}]}`, want: http.StatusBadRequest},
		{name: "weighted graph", graph: "wg", body: `{"mutations":[{"op":"addEdge","u":0,"v":9}]}`, want: http.StatusConflict},
		{name: "invalid batch on a weighted graph", graph: "wg", body: `{"mutations":[{"op":"addEdge","u":9,"v":9}]}`, want: http.StatusBadRequest},
		{name: "same delVertex twice", graph: "default", body: `{"mutations":[{"op":"delVertex","u":5},{"op":"delVertex","u":5}]}`,
			want: http.StatusAccepted, state: "done", applied: int(def.Degree(5)), vertices: def.NumV},
		{name: "delVertex of a cut vertex", graph: "path", body: `{"mutations":[{"op":"delVertex","u":100}]}`,
			want: http.StatusAccepted, state: "done", applied: 2, vertices: 200},
		{name: "isolated vertices only", graph: "default", body: `{"mutations":[{"op":"addVertices","count":3}]}`,
			want: http.StatusAccepted, state: "done", applied: 1, vertices: def.NumV + 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := graphInfos(t, ts.URL)
			g0, _ := s.cat.Get(tc.graph)
			v0, _, _ := s.viewOf(tc.graph)
			applied0 := s.mutationsApplied.Value()
			code, b := patchGraph(t, ts.URL, tc.graph, tc.body)
			if code != tc.want {
				t.Fatalf("status %d, want %d: %s", code, tc.want, b)
			}
			if code != http.StatusAccepted {
				after := graphInfos(t, ts.URL)
				g1, _ := s.cat.Get(tc.graph)
				if after[tc.graph] != before[tc.graph] || g1 != g0 || s.mutationsApplied.Value() != applied0 {
					t.Fatalf("a rejected PATCH changed %s: %+v → %+v (same graph: %v)", tc.graph, before[tc.graph], after[tc.graph], g1 == g0)
				}
				return
			}
			var patched struct {
				Applied    int         `json:"applied"`
				Vertices   int         `json:"vertices"`
				Generation uint64      `json:"generation"`
				Job        jobs.Status `json:"job"`
			}
			if err := json.Unmarshal(b, &patched); err != nil {
				t.Fatal(err)
			}
			if in := graphInfos(t, ts.URL)[tc.graph]; patched.Applied != tc.applied || patched.Vertices != tc.vertices || in.Vertices != tc.vertices ||
				!in.Dynamic || in.Generation != before[tc.graph].Generation+1 || patched.Generation != in.Generation {
				t.Fatalf("after the PATCH %s = %+v, reply %s; want %d applied, %d vertices, dynamic, one generation on", tc.graph, in, b, tc.applied, tc.vertices)
			}
			var st jobs.Status
			for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				if st = jobStatus(t, ts.URL, patched.Job.ID); st.State == "done" || st.State == "failed" || st.State == "cancelled" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("refinement %s never finished: %+v", patched.Job.ID, st)
				}
			}
			if st.State != tc.state {
				t.Fatalf("refinement ended %q (%s), want %q", st.State, st.Error, tc.state)
			}
			if st.State != "done" {
				return
			}
			var v *view
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				if v, _, _ = s.viewOf(tc.graph); v != v0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the refinement was never installed")
				}
			}
			if v.g.NumV != tc.vertices || v.layout.Coords.Rows != tc.vertices {
				t.Fatalf("installed view: %d vertices, %d rows; want %d", v.g.NumV, v.layout.Coords.Rows, tc.vertices)
			}
			for i, x := range v.layout.Coords.Data {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("coordinate %d of the installed view is %v", i, x)
				}
			}
		})
	}
	// Unknown graph's stream is 404.
	r2, err := http.Get(ts.URL + "/graphs/nope/stream")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("stream of unknown graph: %d, want 404", r2.StatusCode)
	}
}

// TestStreamSoakNoGoroutineLeak runs a mutate loop against several
// concurrent SSE subscribers, then disconnects them all and verifies the
// handler goroutines unwind (run under -race in CI).
func TestStreamSoakNoGoroutineLeak(t *testing.T) {
	s, ts := newTestServerPair(t, Config{})
	before := runtime.NumGoroutine()

	const subscribers = 8
	clients := make([]*sseClient, subscribers)
	for i := range clients {
		clients[i] = dialStream(t, ts.URL, "default")
		if ev, _ := clients[i].next(t); ev != "snapshot" {
			t.Fatalf("subscriber %d: expected snapshot, got %q", i, ev)
		}
	}
	if got := s.streamSubs.Value(); got != subscribers {
		t.Fatalf("stream_subscribers = %d, want %d", got, subscribers)
	}

	for round := 0; round < 3; round++ {
		code, b := patchGraph(t, ts.URL, "default",
			fmt.Sprintf(`{"mutations":[{"op":"addEdge","u":%d,"v":%d}]}`, round, 100+31*round))
		if code != http.StatusAccepted {
			t.Fatalf("round %d: status %d: %s", round, code, b)
		}
		for i, c := range clients {
			if ev, payload := c.next(t); ev != "delta" || payload.Version < 2 {
				t.Fatalf("round %d subscriber %d: %q %+v", round, i, ev, payload)
			}
		}
	}

	for _, c := range clients {
		c.close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Idle keep-alive connections in the shared client transport hold
		// goroutines on both ends; drop them so only a real server-side
		// leak can keep the count elevated.
		http.DefaultClient.CloseIdleConnections()
		if s.streamSubs.Value() == 0 && runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines: %d before, %d after disconnect; %d subscribers still registered\n%s",
				before, runtime.NumGoroutine(), s.streamSubs.Value(), buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWarmInstallMetrics checks that mutations route through the
// warm-start path and show up on /metrics.
func TestWarmInstallMetrics(t *testing.T) {
	s, ts := newTestServerPair(t, Config{})
	c := dialStream(t, ts.URL, "default")
	c.next(t)
	code, b := patchGraph(t, ts.URL, "default", `{"mutations":[{"op":"addEdge","u":0,"v":77}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("patch status %d: %s", code, b)
	}
	c.next(t) // wait for the install
	if got := s.warmLayouts.Value(); got != 1 {
		t.Fatalf("warm installs = %d, want 1", got)
	}
	if got := s.refineSweeps.Value(); got <= 0 {
		t.Fatalf("refine_sweeps_total = %d, want > 0", got)
	}
	if got := s.mutationsApplied.Value(); got != 1 {
		t.Fatalf("graph_mutations_total = %d, want 1", got)
	}
	// Every done job carries a report, the warm one the PATCH queued as
	// much as a cold one: the server installs from it without a nil check.
	var patched struct {
		Job jobs.Status `json:"job"`
	}
	if err := json.Unmarshal(b, &patched); err != nil {
		t.Fatal(err)
	}
	cold := submitJob(t, ts.URL, "default", 8)
	waitJobState(t, ts.URL, cold, "done")
	for _, id := range []string{patched.Job.ID, cold} {
		j, ok := s.Jobs().Get(id)
		if !ok {
			t.Fatalf("job %s not retained", id)
		}
		if res := j.Result(); res == nil || res.Report == nil || res.Report.Warm != (id == patched.Job.ID) {
			t.Fatalf("done job %s: result %+v lacks the expected report", id, res)
		}
		if st := j.Status(); len(st.Phases) == 0 {
			t.Fatalf("done job %s reports no phases: %+v", id, st)
		}
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	b, _ = io.ReadAll(mresp.Body)
	for _, want := range []string{
		`layouts_installed_total{mode="warm"} 1`,
		"refine_sweeps_total",
		"stream_broadcast_seconds",
		"stream_subscribers",
		"graph_mutations_total 1",
	} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}
