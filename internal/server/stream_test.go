package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/linalg"
)

// streamEvent is the SSE payload of both event kinds. A "snapshot" (and a
// "full" delta) carries every vertex; any other delta the rows of Changed
// only. Coords is row-per-vertex, Dims values each.
type streamEvent struct {
	Graph   string      `json:"graph"`
	Version int         `json:"version"`
	Dims    int         `json:"dims"`
	N       int         `json:"n"`
	Full    bool        `json:"full"`
	Changed []int32     `json:"changed"`
	Coords  [][]float64 `json:"coords"`
}

// apply folds ev into the client's copy of the layout, row-per-vertex.
func (ev streamEvent) apply(rows [][]float64) [][]float64 {
	if ev.Full {
		return ev.Coords
	}
	for len(rows) < ev.N {
		rows = append(rows, nil)
	}
	for k, i := range ev.Changed {
		rows[i] = ev.Coords[k]
	}
	return rows
}

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
	event, ev, err := c.read(time.Now().Add(15 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return event, ev
}

// read returns the next SSE event, skipping heartbeats, or the error that
// ended the stream first. deadline is checked between lines.
func (c *sseClient) read(deadline time.Time) (string, streamEvent, error) {
	var event string
	var data []byte
	for {
		if time.Now().After(deadline) {
			return "", streamEvent{}, errors.New("timed out waiting for SSE event")
		}
		line, err := c.br.ReadString('\n')
		if err != nil {
			return "", streamEvent{}, fmt.Errorf("stream read: %w", err)
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
				return "", streamEvent{}, fmt.Errorf("bad event payload %q: %w", data, err)
			}
			return event, ev, nil
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
	if got := s.feed.streams.subscribers.Value(); got != subscribers {
		t.Fatalf("stream_subscribers = %d, want %d", got, subscribers)
	}
	if got := s.feed.routers.subscribers.Value(); got != 0 {
		t.Fatalf("invalidation_subscribers = %d with only streams open: it counts routers", got)
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
	// A handler hears its client hang up asynchronously: every stream must
	// unsubscribe before the goroutines are counted.
	for deadline := time.Now().Add(10 * time.Second); s.feed.streams.subscribers.Value() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d streams still subscribed 10 s after their clients left", s.feed.streams.subscribers.Value())
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Idle keep-alive connections in the shared client transport hold
		// goroutines on both ends; drop them so only a real server-side
		// leak can keep the count elevated.
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines: %d before, %d after disconnect\n%s", before, runtime.NumGoroutine(), buf)
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
	if got := s.mutationsApplied.Value(); got != 1 {
		t.Fatalf("graph_mutations_total = %d, want 1", got)
	}
	// Every done job carries a report, the warm one the PATCH queued as
	// much as a cold one: the server installs from it without a nil check,
	// and the job keeps its phases once the install took the report.
	var patched struct {
		Job jobs.Status `json:"job"`
	}
	if err := json.Unmarshal(b, &patched); err != nil {
		t.Fatal(err)
	}
	installed := func(id string, warm bool) {
		t.Helper()
		if v, _, _ := s.viewOf("default"); v.report == nil || v.report.Warm != warm {
			t.Fatalf("job %s installed report %+v, want warm=%v", id, v.report, warm)
		}
		j, ok := s.Jobs().Get(id)
		if !ok {
			t.Fatalf("job %s not retained", id)
		}
		if st := j.Status(); st.State != "done" || len(st.Phases) == 0 {
			t.Fatalf("done job %s reports no phases: %+v", id, st)
		}
	}
	installed(patched.Job.ID, true)
	cold := submitJob(t, ts.URL, "default", 8)
	waitJobState(t, ts.URL, cold, "done")
	c.next(t) // wait for the install
	installed(cold, false)
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	b, _ = io.ReadAll(mresp.Body)
	for _, want := range []string{
		`layouts_installed_total{mode="warm"} 1`,
		"streams_dropped_total",
		"stream_subscribers",
		"graph_mutations_total 1",
	} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestPhaseGaugesFollowInstall: the parhde_phase_seconds gauges report
// the last installed layout, so a job's install moves {phase="total"} from
// the start-up layout's time to that job's.
func TestPhaseGaugesFollowInstall(t *testing.T) {
	s, ts := newTestServerPair(t, Config{})
	c := dialStream(t, ts.URL, "default")
	c.next(t)
	startup := s.Report().Breakdown.Total.Seconds()
	id := submitJob(t, ts.URL, "default", 8)
	waitJobState(t, ts.URL, id, "done")
	c.next(t) // wait for the install
	j, ok := s.Jobs().Get(id)
	if !ok {
		t.Fatalf("job %s not retained", id)
	}
	var want float64 // the job's total, which its status keeps
	for _, p := range j.Status().Phases {
		if p.Name == "total" {
			want = p.Seconds
		}
	}
	if want == startup {
		t.Fatal("the job's total equals the start-up layout's; the test checks nothing")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	const series = `parhde_phase_seconds{phase="total"} `
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			if got, err := strconv.ParseFloat(v, 64); err != nil || got != want {
				t.Fatalf("%s%s, want the job's total %g", series, v, want)
			}
			return
		}
	}
	t.Fatalf("/metrics has no %q line", series)
}

// TestPatchRoundTripRestoresColdView: a PATCH that adds edges and one that
// deletes them again both run warm, and the second installs the cold
// view's coordinates again, to rounding.
func TestPatchRoundTripRestoresColdView(t *testing.T) {
	s, ts := newTestServerPair(t, Config{Workers: 1})
	cold, _, _ := s.viewOf("default")
	v := cold
	for _, step := range []struct {
		op    string
		delta int // edges differing from the cold view's graph
	}{{"addEdge", 2}, {"delEdge", 0}} {
		op := step.op
		body := fmt.Sprintf(`{"mutations":[{"op":%q,"u":0,"v":77},{"op":%q,"u":5,"v":300}]}`, op, op)
		if code, b := patchGraph(t, ts.URL, "default", body); code != http.StatusAccepted {
			t.Fatalf("%s: status %d: %s", op, code, b)
		}
		v = installedAfter(t, s, "default", v)
		if !v.report.Warm || v.report.DeltaEdges != step.delta {
			t.Fatalf("%s: warm=%v with %d delta edges, want a warm run over %d", op, v.report.Warm, v.report.DeltaEdges, step.delta)
		}
	}
	for i, x := range v.layout.Coords.Data {
		if d := math.Abs(x - cold.layout.Coords.Data[i]); d > 1e-12 {
			t.Fatalf("coordinate %d: %.17g after the round trip, %.17g cold", i, x, cold.layout.Coords.Data[i])
		}
	}
}

// TestPatchSessionGoesColdPastBound: the staleness bound caps the change
// since the last cold layout, not each PATCH. A session of one-edge
// PATCHes, more of them than 1/DefaultMaxPriorDelta, runs warm until the
// edges added since the last cold layout pass the bound, then relays out
// cold and runs warm again from the new layout's basis.
func TestPatchSessionGoesColdPastBound(t *testing.T) {
	g := gen.Grid2D(10, 10)
	s, err := NewWithConfig(g, core.Options{Subspace: 10, Seed: 1}, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	v, _, _ := s.viewOf("default")
	since, colds := 0, 0
	for i := 0; i <= int(1/core.DefaultMaxPriorDelta); i++ {
		// Vertex i and the one two rows below are never adjacent.
		body := fmt.Sprintf(`{"mutations":[{"op":"addEdge","u":%d,"v":%d}]}`, i, i+20)
		if code, b := patchGraph(t, ts.URL, "default", body); code != http.StatusAccepted {
			t.Fatalf("PATCH %d: status %d: %s", i, code, b)
		}
		v = installedAfter(t, s, "default", v)
		since++
		if stale := since > int(core.DefaultMaxPriorDelta*float64(v.g.NumEdges())); stale {
			if v.report.Warm {
				t.Fatalf("PATCH %d: ran warm %d edges past the last cold layout", i, since)
			}
			since = 0
			colds++
		} else if !v.report.Warm || v.report.DeltaEdges != since {
			t.Fatalf("PATCH %d: warm=%v with %d delta edges, want a warm run over %d", i, v.report.Warm, v.report.DeltaEdges, since)
		}
	}
	if colds < 2 {
		t.Fatalf("%d cold relayouts in the session, want several", colds)
	}
}

// installedAfter waits until the named graph's installed view is no longer
// old and returns it.
func installedAfter(t *testing.T, s *Server, name string, old *view) *view {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if v, _, laidOut := s.viewOf(name); laidOut && v != old {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("no new view of %s was installed", name)
		}
	}
}

// sameRows reports whether the client's rows are bit for bit the layout's.
func sameRows(rows [][]float64, l *core.Layout) bool {
	if len(rows) != l.NumVertices() {
		return false
	}
	for i, row := range rows {
		if len(row) != l.Dims() {
			return false
		}
		for j, x := range row {
			if math.Float64bits(x) != math.Float64bits(l.Coords.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// TestStreamSurvivesWriteTimeout: a stream outlives the http.Server's
// WriteTimeout — every write carries its own deadline and the heartbeat
// keeps the connection writing — and still delivers the delta of a PATCH
// made after the timeout has passed.
func TestStreamSurvivesWriteTimeout(t *testing.T) {
	s, err := NewWithConfig(gen.PlateWithHoles(30, 30), core.Options{Subspace: 10, Seed: 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.WriteTimeout = 300 * time.Millisecond
	ts.Start()
	t.Cleanup(ts.Close)

	c := dialStream(t, ts.URL, DefaultGraph)
	if event, _ := c.next(t); event != "snapshot" {
		t.Fatalf("first event %q, want snapshot", event)
	}
	time.Sleep(time.Second)
	if code, b := patchGraph(t, ts.URL, DefaultGraph, `{"mutations":[{"op":"addEdge","u":0,"v":47}]}`); code != http.StatusAccepted {
		t.Fatalf("patch status %d: %s", code, b)
	}
	if event, ev := c.next(t); event != "delta" || ev.Version <= 1 {
		t.Fatalf("after the write timeout: %q %+v, want a delta", event, ev)
	}
}

// edited returns a copy of l cut to its first n rows, with the listed rows
// moved.
func edited(l *core.Layout, n int, rows ...int) *core.Layout {
	c := linalg.NewDense(n, l.Dims())
	for j := 0; j < l.Dims(); j++ {
		col := c.Col(j)
		copy(col, l.Coords.Col(j))
		for _, i := range rows {
			col[i] = 1 - col[i]
		}
	}
	return &core.Layout{Coords: c}
}

// TestStreamDeltasRebuildView: a client that applies the snapshot and then
// every delta holds, after each of 24 PATCH batches — some adding vertices,
// some deleting edges, some changing nothing — a bit-for-bit copy of the
// installed view. A warm refinement moves every row, so after each batch
// two rows of the view are moved by hand, and after a batch that added
// vertices the view is cut back and regrown: the sparse deltas, new rows
// included, are rebuilt bitwise too. The stream ends when the graph is
// deleted.
func TestStreamDeltasRebuildView(t *testing.T) {
	s, ts := newTestServerPair(t, Config{Workers: 1})
	var edges bytes.Buffer
	if err := graph.WriteEdgeList(&edges, gen.Grid2D(12, 12)); err != nil {
		t.Fatal(err)
	}
	uploadGraph(t, ts.URL, "g", edges.String())
	waitJobState(t, ts.URL, submitJob(t, ts.URL, "g", 8), "done")
	v := installedAfter(t, s, "g", nil)

	c := dialStream(t, ts.URL, "g")
	event, snap := c.next(t)
	if event != "snapshot" || snap.Version != v.gen || !sameRows(snap.apply(nil), v.layout) {
		t.Fatalf("first event %q version %d is not the installed view %d", event, snap.Version, v.gen)
	}
	rows, last := snap.apply(nil), snap.Version
	// catchUp applies deltas until the client holds the installed view, and
	// returns the rows the last one changed (nil for a full one).
	catchUp := func(what string) []int32 {
		t.Helper()
		v, _, _ = s.viewOf("g")
		var changed []int32
		for last < v.gen {
			event, ev := c.next(t)
			if event != "delta" || ev.Version <= last {
				t.Fatalf("%s: %q %+v after version %d", what, event, ev, last)
			}
			rows, last, changed = ev.apply(rows), ev.Version, ev.Changed
		}
		if last != v.gen || !sameRows(rows, v.layout) {
			t.Fatalf("%s: the client holds version %d (%d rows), the installed view is %d (%d rows): not bitwise equal",
				what, last, len(rows), v.gen, v.layout.NumVertices())
		}
		return changed
	}
	install := func(l *core.Layout) { s.install("g", v.g, l, v.report, v.opt, core.Quality{}, "") }

	rng := rand.New(rand.NewSource(1))
	n := 144
	for batch := 0; batch < 24; batch++ {
		var ops []string
		edge := func(op string, u, w int) {
			ops = append(ops, fmt.Sprintf(`{"op":%q,"u":%d,"v":%d}`, op, u, w))
		}
		switch batch % 4 {
		case 1:
			edge("delEdge", 13*(batch%11), 13*(batch%11)+1) // a grid edge, while it lasts
		case 2:
			ops = append(ops, `{"op":"addVertices","count":2}`)
			edge("addEdge", n, rng.Intn(n))
			n += 2
		}
		if u := rng.Intn(n); batch%4 != 3 {
			edge("addEdge", u, (u+1+rng.Intn(n-1))%n)
		} else {
			edge("addEdge", 0, 1) // present from the start: the batch changes nothing
		}
		what := fmt.Sprintf("batch %d", batch)
		if code, b := patchGraph(t, ts.URL, "g", `{"mutations":[`+strings.Join(ops, ",")+`]}`); code != http.StatusAccepted {
			t.Fatalf("%s: status %d: %s", what, code, b)
		}
		v = installedAfter(t, s, "g", v)
		catchUp(what)

		moved := edited(v.layout, n, batch, n-1)
		install(moved)
		if changed := catchUp(what + ", two rows moved"); len(changed) != 2 {
			t.Fatalf("%s: moving two rows sent changed = %v", what, changed)
		}
		if batch%4 == 2 {
			install(edited(moved, n-2))
			catchUp(what + ", cut back")
			install(moved)
			if changed := catchUp(what + ", regrown"); len(changed) != 2 || changed[0] != int32(n-2) {
				t.Fatalf("%s: regrowing two rows sent changed = %v", what, changed)
			}
		}
	}
	if v.layout.NumVertices() != n {
		t.Fatalf("the installed view has %d vertices, the batches made %d", v.layout.NumVertices(), n)
	}

	if resp, _ := doReq(t, http.MethodDelete, ts.URL+"/graphs/g"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	if _, _, err := c.read(time.Now().Add(10 * time.Second)); !errors.Is(err, io.EOF) {
		t.Fatalf("the stream of a deleted graph did not end: %v", err)
	}
}

// TestStreamSlowClientCutOff is TestFeedSlowRouterCutOff's twin for the
// SSE stream: a client that reads its snapshot and stops is cut off once it
// is a full feed buffer behind, counted in streams_dropped_total, and its
// response ends. No install waits for it, and what it was sent holds no
// gap: applied in order, the events it can still read rebuild one whole
// installed layout.
func TestStreamSlowClientCutOff(t *testing.T) {
	s, ts := newTestServerPair(t, Config{})
	conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.(*net.TCPConn).SetReadBuffer(4 << 10) // fill up sooner
	fmt.Fprintf(conn, "GET /graphs/%s/stream HTTP/1.1\r\nHost: worker\r\n\r\n", DefaultGraph)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := &sseClient{resp: resp, br: bufio.NewReader(resp.Body), cancel: func() {}}
	event, snap := c.next(t)
	if event != "snapshot" {
		t.Fatalf("first event %q, want snapshot", event)
	}
	if got := s.feed.streams.subscribers.Value(); got != 1 {
		t.Fatalf("stream_subscribers = %d with one stream open", got)
	}

	// Installs alternate between the layout and its mirror image, so a
	// delta either moves every row or none, and is large or empty.
	v, _, _ := s.viewOf(DefaultGraph)
	mirror := v.layout.Clone()
	for i := range mirror.Coords.Data {
		mirror.Coords.Data[i] = -mirror.Coords.Data[i]
	}
	layouts := []*core.Layout{mirror, v.layout}
	for deadline := time.Now().Add(30 * time.Second); s.feed.streams.subscribers.Value() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("a stream nobody reads is still subscribed after 30 s of installs")
		}
		for i := 0; i < 100; i++ {
			s.install(v.name, v.g, layouts[i%2], v.report, v.opt, core.Quality{}, "")
		}
	}
	if got := s.feed.streams.dropped.Value(); got != 1 {
		t.Errorf("streams_dropped_total = %d, want 1", got)
	}
	if got := s.feed.routers.dropped.Value(); got != 0 {
		t.Errorf("invalidations_dropped_total = %d: a stream was counted as a router", got)
	}

	rows, last := snap.apply(nil), snap.Version
	for {
		event, ev, err := c.read(time.Now().Add(10 * time.Second))
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("the cut-off stream did not end: %v", err)
			}
			break
		}
		if event != "delta" || ev.Version <= last {
			t.Fatalf("%q version %d after version %d", event, ev.Version, last)
		}
		rows, last = ev.apply(rows), ev.Version
	}
	if !sameRows(rows, v.layout) && !sameRows(rows, mirror) {
		t.Fatalf("after version %d the client holds neither installed layout", last)
	}
}

// TestStreamSnapshotAllocsFlat: a snapshot is written row by row through
// one small buffer, so writing it costs the same allocations for a plate
// 16 times the size.
func TestStreamSnapshotAllocsFlat(t *testing.T) {
	allocs := func(side int) float64 {
		g := gen.PlateWithHoles(side, side)
		l, _, err := core.ParHDE(g, core.Options{Subspace: 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		v := &view{name: "g", gen: 1, g: g, layout: l}
		bw := bufio.NewWriter(io.Discard)
		return testing.AllocsPerRun(5, func() { writeEvent(bw, []byte(`"g"`), nil, v) })
	}
	if small, large := allocs(30), allocs(120); small != large {
		t.Fatalf("a snapshot of a 30² plate costs %v allocations, of a 120² plate %v", small, large)
	}
}
