package obs

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("count=%d, want 8000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(42)
	g.Add(-2)
	if g.Value() != 40 {
		t.Fatalf("gauge=%d, want 40", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram()
	h.Observe(0.0007)                   // lands in the le=0.001 bucket
	h.Observe(0.3)                      // le=0.5
	h.ObserveDuration(20 * time.Second) // +Inf
	if h.Count() != 3 {
		t.Fatalf("count=%d, want 3", h.Count())
	}
	if s := h.Sum(); s < 20.2 || s > 20.4 {
		t.Fatalf("sum=%g, want ~20.3", s)
	}
	if got := h.counts[len(h.counts)-1].Load(); got != 1 {
		t.Fatalf("+Inf bucket=%d, want 1", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("same name must return the same counter")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("same name must return the same gauge")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("same name must return the same histogram")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(`reqs_total{route="/a"}`).Add(3)
	r.Counter(`reqs_total{route="/b"}`).Inc()
	r.Gauge("cache_bytes").Set(123)
	r.GaugeFunc("phase_seconds", func() float64 { return 1.5 })
	r.Histogram(`lat_seconds{route="/a"}`).Observe(0.002)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE reqs_total counter",
		`reqs_total{route="/a"} 3`,
		`reqs_total{route="/b"} 1`,
		"# TYPE cache_bytes gauge",
		"cache_bytes 123",
		"phase_seconds 1.5",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{route="/a",le="0.0025"} 1`,
		`lat_seconds_bucket{route="/a",le="+Inf"} 1`,
		`lat_seconds_sum{route="/a"} 0.002`,
		`lat_seconds_count{route="/a"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// The family TYPE line must appear exactly once despite two series.
	if strings.Count(out, "# TYPE reqs_total counter") != 1 {
		t.Fatalf("duplicate TYPE lines:\n%s", out)
	}
	// Cumulative buckets: le=0.0025 upward all report the observation.
	if !strings.Contains(out, `lat_seconds_bucket{route="/a",le="1"} 1`) {
		t.Fatalf("buckets not cumulative:\n%s", out)
	}
	if strings.Contains(out, `le="0.001"} 1`) {
		t.Fatalf("observation leaked into a lower bucket:\n%s", out)
	}
}

func TestMiddleware(t *testing.T) {
	r := NewRegistry()
	var logged strings.Builder
	logger := slog.New(slog.NewTextHandler(&logged, nil))
	inner := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/missing" {
			http.NotFound(w, req)
			return
		}
		_, _ = w.Write([]byte("hello"))
	})
	routeOf := func(req *http.Request) string {
		if req.URL.Path == "/ok" {
			return "/ok"
		}
		return "other"
	}
	ts := httptest.NewServer(Middleware(r, logger, routeOf, inner))
	defer ts.Close()

	for _, p := range []string{"/ok", "/ok", "/missing"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if got := r.Counter(`http_requests_total{route="/ok",code="200"}`).Value(); got != 2 {
		t.Fatalf("ok requests=%d, want 2", got)
	}
	if got := r.Counter(`http_requests_total{route="other",code="404"}`).Value(); got != 1 {
		t.Fatalf("404 requests=%d, want 1", got)
	}
	if got := r.Histogram(`http_request_duration_seconds{route="/ok"}`).Count(); got != 2 {
		t.Fatalf("latency observations=%d, want 2", got)
	}
	if r.Counter("http_response_bytes_total").Value() < 10 {
		t.Fatal("response bytes not accounted")
	}
	lines := strings.Split(strings.TrimSpace(logged.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("access log has %d lines, want 3:\n%s", len(lines), logged.String())
	}
	if !strings.Contains(lines[0], "level=INFO msg=access method=GET") || !strings.Contains(lines[0], "status=200") ||
		!strings.Contains(lines[0], "route=/ok") || !strings.Contains(lines[0], "requestId=") {
		t.Fatalf("unexpected access-log line: %s", lines[0])
	}
}

// TestMiddlewareRequestID: a valid client ID is kept — on the request the
// handler sees, on the response and in the access record — and an
// over-long or ill-formed one is replaced by a minted ID, unique per
// request.
func TestMiddlewareRequestID(t *testing.T) {
	var logged strings.Builder
	var seen string // the ID the handler read off its request
	h := Middleware(NewRegistry(), slog.New(slog.NewTextHandler(&logged, nil)), nil,
		http.HandlerFunc(func(_ http.ResponseWriter, req *http.Request) { seen = req.Header.Get(RequestIDHeader) }))
	serve := func(sent ...string) string {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.Header[RequestIDHeader] = sent
		rec := httptest.NewRecorder()
		logged.Reset()
		h.ServeHTTP(rec, req)
		id := rec.Header().Get(RequestIDHeader)
		if seen != id || !strings.Contains(logged.String(), " requestId="+id+"\n") {
			t.Fatalf("sent %q: response says %q, handler saw %q, access record %q", sent, id, seen, logged.String())
		}
		return id
	}
	max := strings.Repeat("a", 64)
	for _, id := range []string{"abc-123", "A.b_C-9", max} {
		if got := serve(id); got != id {
			t.Errorf("valid ID %q replaced by %q", id, got)
		}
	}
	if got := serve("first", "second"); got != "first" {
		t.Errorf("two IDs sent: kept %q, want the first", got)
	}
	minted := map[string]bool{}
	for _, sent := range [][]string{nil, {""}, {max + "a"}, {"a b"}, {"x/y"}, {"é"}, {`"q"`}} {
		got := serve(sent...)
		if !validRequestID(got) || minted[got] || len(sent) > 0 && got == sent[0] {
			t.Errorf("sent %q: got %q, want a fresh valid ID", sent, got)
		}
		minted[got] = true
	}
}

// countingHandler counts the records that reach Handle; it is enabled
// from level min up.
type countingHandler struct {
	min     slog.Level
	handled atomic.Int64
}

func (h *countingHandler) Enabled(_ context.Context, l slog.Level) bool { return l >= h.min }
func (h *countingHandler) Handle(context.Context, slog.Record) error {
	h.handled.Add(1)
	return nil
}
func (h *countingHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *countingHandler) WithGroup(string) slog.Handler      { return h }

// TestMiddlewareSilentPathAllocs: with access records off — the Discard
// logger of a zero Config, or a Warn-level one as hdeserve -quiet builds —
// no record reaches a handler and a request allocates what it did before
// request IDs: parentAllocs, its statusWriter, measured with this loop on
// the middleware of the parent commit, which had no ID. A request that
// brings a valid ID adds nothing to that; one whose ID is minted adds the
// one short string of the ID.
func TestMiddlewareSilentPathAllocs(t *testing.T) {
	const parentAllocs = 1
	warn := &countingHandler{min: slog.LevelWarn}
	for name, logger := range map[string]*slog.Logger{"discard": Discard(), "warn": slog.New(warn)} {
		h := Middleware(NewRegistry(), logger, func(*http.Request) string { return "/ok" },
			http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
		req := httptest.NewRequest(http.MethodGet, "/ok", nil)
		rec := httptest.NewRecorder()
		req.Header.Set(RequestIDHeader, "client-1")
		if n := testing.AllocsPerRun(200, func() { h.ServeHTTP(rec, req) }); n > parentAllocs {
			t.Errorf("%s: a request with its own ID allocates %v times, want at most %d", name, n, parentAllocs)
		}
		minted := testing.AllocsPerRun(200, func() {
			delete(req.Header, RequestIDHeader)
			h.ServeHTTP(rec, req)
		})
		if minted > parentAllocs+1 {
			t.Errorf("%s: a request whose ID is minted allocates %v times, want at most %d", name, minted, parentAllocs+1)
		}
	}
	if n := warn.handled.Load(); n != 0 {
		t.Errorf("%d records reached a Warn-level handler", n)
	}
}
