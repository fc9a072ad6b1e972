package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/render"
)

func newTestServerPair(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	g := gen.PlateWithHoles(30, 30)
	s, err := NewWithConfig(g, core.Options{Subspace: 10, Seed: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	_, ts := newTestServerPair(t, Config{})
	return ts
}

func TestIndexPage(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	if !strings.Contains(body, "ParHDE layout") || !strings.Contains(body, "/layout.png") {
		t.Fatalf("unexpected page: %.200s", body)
	}
}

func TestLayoutPNG(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/layout.png")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
		t.Fatalf("content type %q", ct)
	}
	img, err := png.Decode(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 700 {
		t.Fatalf("image width %d", img.Bounds().Dx())
	}
}

func TestZoomPNGAndValidation(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/zoom.png?v=100&hops=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if _, err := png.Decode(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"v=-1", "v=99999999", "hops=0", "hops=200", "v=abc"} {
		r, err := http.Get(ts.URL + "/zoom.png?" + bad)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("query %q: status %d, want 400", bad, r.StatusCode)
		}
	}
}

func TestZoomCaching(t *testing.T) {
	g := gen.Grid2D(15, 15)
	s, err := NewWithConfig(g, core.Options{Subspace: 6, Seed: 2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/zoom.png?v=10&hops=4")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if _, ok := s.cache.Peek("g:default:1:1:zoom:10:4"); !ok {
		t.Fatal("zoom render not cached")
	}
	if got := s.zoomRenders.Value(); got != 1 {
		t.Fatalf("zoom layouts = %d, want 1 (second request must hit the cache)", got)
	}
}

func TestStatsJSON(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"vertices", "edges", "hallRatio", "layoutSeconds"} {
		if _, ok := stats[key]; !ok {
			t.Fatalf("stats missing %q: %v", key, stats)
		}
	}
}

func TestUnknownPath404(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestLayoutSVG(t *testing.T) {
	ts := newTestServer(t)
	for i := 0; i < 2; i++ { // second hit exercises the cache
		resp, err := http.Get(ts.URL + "/layout.svg")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
			t.Fatalf("content type %q", ct)
		}
		buf := make([]byte, 64)
		n, _ := resp.Body.Read(buf)
		resp.Body.Close()
		if !strings.HasPrefix(string(buf[:n]), "<svg") {
			t.Fatalf("not svg: %q", string(buf[:n]))
		}
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d, want 200", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if string(b) != "ok\n" {
		t.Fatalf("healthz body %q", b)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	// Generate some traffic first so counters exist. Drain each body to
	// EOF: that orders the middleware's post-handler accounting before
	// the /metrics scrape below.
	for _, p := range []string{"/layout.png", "/zoom.png?v=5&hops=3", "/stats"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("path %s: status %d", p, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	body := string(b)
	for _, want := range []string{
		`http_requests_total{route="/zoom.png",code="200"} 1`,
		`http_request_duration_seconds_bucket{route="/stats",le="+Inf"} 1`,
		"render_cache_hits_total",
		"render_cache_misses_total",
		"render_cache_evictions_total",
		"render_cache_bytes",
		`parhde_phase_seconds{phase="bfs_traversal"}`,
		`parhde_phase_seconds{phase="total"}`,
		"zoom_layouts_total 1",
		`bfs_steps_total{direction="topdown"}`,
		`bfs_steps_total{direction="bottomup"}`,
		"bfs_direction_switches_total",
		"bfs_scanned_edges_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestBFSDirectionCountersRecorded pins the startup layout's traversal
// stats flowing into the direction counters: a cold run must record
// top-down steps and scanned edges (bottom-up may legitimately be zero
// on a small high-diameter graph).
func TestBFSDirectionCountersRecorded(t *testing.T) {
	s, _ := newTestServerPair(t, Config{})
	if got := s.bfsTopDown.Value(); got <= 0 {
		t.Fatalf("bfs topdown steps = %d, want > 0", got)
	}
	if got := s.bfsScannedEdges.Value(); got <= 0 {
		t.Fatalf("bfs scanned edges = %d, want > 0", got)
	}
	// Every bottom-up phase is entered once and left at most once.
	sw, bu := s.bfsSwitches.Value(), s.bfsBottomUp.Value()
	if (sw > 0) != (bu > 0) || sw > 2*bu {
		t.Fatalf("bfs direction switches = %d with %d bottom-up steps", sw, bu)
	}
}

// TestSingleflightColdKey is the acceptance check for the thundering-herd
// bug: 50 concurrent requests for the same uncached zoom key must trigger
// exactly one core.Zoom layout, with every request getting the same bytes.
func TestSingleflightColdKey(t *testing.T) {
	s, ts := newTestServerPair(t, Config{})
	const clients = 50
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/zoom.png?v=200&hops=6")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("status %d", resp.StatusCode)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	if got := s.zoomRenders.Value(); got != 1 {
		t.Fatalf("cold key rendered %d times across %d concurrent requests, want exactly 1", got, clients)
	}
	for i := 1; i < clients; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("request %d got different bytes than request 0", i)
		}
	}
}

// TestConcurrentMixedTraffic hammers the full route set from ≥50
// goroutines (run under -race in CI) and checks the cache stays within
// its byte budget and per-key renders stay deduplicated.
func TestConcurrentMixedTraffic(t *testing.T) {
	const budget = int64(1 << 20)
	s, ts := newTestServerPair(t, Config{CacheBytes: budget})
	paths := []string{
		"/zoom.png?v=10&hops=3", "/zoom.png?v=20&hops=3", "/zoom.png?v=30&hops=4",
		"/layout.svg", "/layout.png", "/stats", "/", "/healthz", "/metrics",
	}
	const clients = 60
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				resp, err := http.Get(ts.URL + paths[(i+j)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("path %s: status %d", paths[(i+j)%len(paths)], resp.StatusCode)
				}
			}
		}(i)
	}
	wg.Wait()
	if got := s.cache.Bytes(); got > budget {
		t.Fatalf("cache holds %d bytes, budget %d", got, budget)
	}
	// Three zoom keys were requested many times each: exactly three layouts.
	if got := s.zoomRenders.Value(); got != 3 {
		t.Fatalf("zoom layouts = %d, want 3 (one per distinct key)", got)
	}
	if got := s.renderErrors.Value(); got != 0 {
		t.Fatalf("render errors = %d", got)
	}
}

// TestCacheEvictionUnderPressure walks many distinct zoom keys with a
// tiny budget: the cache must stay bounded and evict.
func TestCacheEvictionUnderPressure(t *testing.T) {
	const budget = int64(64 << 10)
	s, ts := newTestServerPair(t, Config{CacheBytes: budget})
	var total int64
	const keys = 24
	for v := 0; v < keys; v++ {
		resp, err := http.Get(fmt.Sprintf("%s/zoom.png?v=%d&hops=2", ts.URL, v*30))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("v=%d: status %d", v*30, resp.StatusCode)
		}
		total += int64(len(b))
	}
	if got := s.cache.Bytes(); got > budget {
		t.Fatalf("cache holds %d bytes, budget %d", got, budget)
	}
	if total > budget {
		ev := s.reg.Counter("render_cache_evictions_total").Value()
		if ev == 0 {
			t.Fatalf("rendered %d bytes against a %d budget but evicted nothing (cache len %d)",
				total, budget, s.cache.Len())
		}
	}
}

func TestPprofGating(t *testing.T) {
	_, off := newTestServerPair(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: status %d, want 404", resp.StatusCode)
	}
	_, on := newTestServerPair(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof enabled: status %d, want 200", resp.StatusCode)
	}
}

// TestRenderSecondsCountsMissesOnly: render_seconds times what the
// per-route request histogram cannot separate — one observation per
// render-cache miss, none for a hit or a 304.
func TestRenderSecondsCountsMissesOnly(t *testing.T) {
	s, ts := newTestServerPair(t, Config{})
	get := func(etag string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/layout.png", nil)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if got := s.renderSeconds.Count(); got != 0 {
		t.Fatalf("render_seconds count %d before any request", got)
	}
	cold := get("")
	if got := s.renderSeconds.Count(); got != 1 {
		t.Fatalf("render_seconds count %d after one cold layout.png, want 1", got)
	}
	get("")
	get(cold.Header.Get("ETag"))
	if got := s.renderSeconds.Count(); got != 1 {
		t.Fatalf("render_seconds count %d after a hit and a 304, want still 1", got)
	}
	if sum := s.renderSeconds.Sum(); sum <= 0 {
		t.Fatalf("render_seconds sum %g", sum)
	}
}

// TestConcurrentColdRendersMatchSerial drives more distinct cold keys
// than there are canvases through renderCached at once (run under -race
// in CI): every render borrows a pooled canvas another key just used,
// and must still produce the bytes a fresh canvas draws on its own.
func TestConcurrentColdRendersMatchSerial(t *testing.T) {
	const maxRenders = 3
	s, _ := newTestServerPair(t, Config{MaxConcurrentRenders: maxRenders})
	v, _, ok := s.viewOf(DefaultGraph)
	if !ok {
		t.Fatal("no default view")
	}
	type job struct {
		key   string
		g     *graph.CSR
		l     *core.Layout
		zoomV int32
	}
	jobs := []job{{key: "t:global.png", g: v.g, l: v.layout}}
	for i := 1; i < maxRenders+4; i++ {
		jobs = append(jobs, job{key: fmt.Sprintf("t:zoom:%d", i), zoomV: int32(37 * i)})
	}
	opt := render.Options{Size: tileSize}
	want := make([][]byte, len(jobs))
	for i := range jobs {
		if j := &jobs[i]; j.g == nil {
			z, err := core.Zoom(v.g, j.zoomV, 3, v.opt)
			if err != nil {
				t.Fatal(err)
			}
			j.g, j.l = z.Subgraph, z.Layout
		}
		var buf bytes.Buffer
		if err := render.Draw(&buf, jobs[i].g, jobs[i].l, opt); err != nil {
			t.Fatal(err)
		}
		want[i] = buf.Bytes()
	}
	for round := 0; round < 2; round++ { // round 2 hits the cache
		var wg sync.WaitGroup
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := s.renderCached(j.key, func(c *render.Canvas) ([]byte, error) {
					return c.PNG(j.g, j.l, opt)
				})
				if err != nil {
					t.Error(err)
				} else if !bytes.Equal(got, want[i]) {
					t.Errorf("round %d: %s differs from its serial render (%d vs %d bytes)", round, j.key, len(got), len(want[i]))
				}
			}()
		}
		wg.Wait()
	}
	if got := s.viewRenders.Value(); got != int64(len(jobs)) {
		t.Errorf("%d renders for %d distinct keys", got, len(jobs))
	}
	if got := len(s.canvases); got != maxRenders {
		t.Errorf("%d canvases back in the pool, want %d", got, maxRenders)
	}
}
