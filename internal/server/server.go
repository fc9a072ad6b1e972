// Package server implements the §4.5.2 vision of ParHDE's zoom feature:
// "this would be useful for future browser-based interactive graph
// visualization". It serves laid-out graphs and renders zoomed k-hop
// neighborhood layouts on demand — feasible interactively because ParHDE
// lays out million-edge graphs in real time.
//
// The serving layer is built for sustained traffic: every rendered view
// goes through a singleflight + byte-budget LRU cache, expensive
// core.Zoom layouts run under a concurrency limit, and an internal/obs
// registry exports request counters, latency histograms, and cache
// behavior on /metrics.
//
// Since the async-jobs rework, one server instance fronts a whole
// catalog of graphs instead of the single graph handed to New: graphs
// are uploaded or loaded by name (internal/catalog), and layouts run as
// queued, cancellable jobs on a bounded worker pool (internal/jobs)
// rather than synchronously inside a request. A completed job installs
// its layout as the graph's current view, which the per-graph render
// endpoints then serve. The original single-graph startup mode is the
// degenerate case: a catalog with one pinned entry named "default".
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html/template"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/httpcache"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/render"
)

// DefaultCacheBytes is the render-cache budget when Config.CacheBytes is
// zero: enough for a few hundred typical 700-px renders without letting a
// key-space crawl grow the heap unboundedly.
const DefaultCacheBytes int64 = 64 << 20

// DefaultMaxUploadBytes bounds one POST /graphs body.
const DefaultMaxUploadBytes int64 = 256 << 20

// DefaultGraph is the catalog name of the graph handed to New at startup.
const DefaultGraph = "default"

// Config tunes the serving layer. The zero value gets sane defaults.
type Config struct {
	// CacheBytes is the render-cache budget. 0 means DefaultCacheBytes;
	// negative disables the bound (not recommended for public traffic).
	CacheBytes int64
	// MaxConcurrentRenders caps concurrently executing expensive renders
	// (distinct cache keys; same-key requests are deduplicated before the
	// limit applies). 0 means GOMAXPROCS.
	MaxConcurrentRenders int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// AccessLog, when non-nil, receives one structured line per request.
	AccessLog *log.Logger

	// CatalogBytes is the graph-catalog byte budget (0 = the catalog
	// package default, negative = unbounded).
	CatalogBytes int64
	// MaxUploadBytes bounds one graph upload body (0 = DefaultMaxUploadBytes).
	MaxUploadBytes int64
	// Workers sizes the layout job worker pool (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the job queue; submissions beyond it get HTTP 429
	// (0 = the jobs package default).
	QueueDepth int
	// JobsTTL is how long finished jobs stay queryable (0 = the jobs
	// package default, negative = forever).
	JobsTTL time.Duration
	// MaxResults caps retained finished jobs (0 = the jobs package default).
	MaxResults int
	// DataDir, when non-empty, holds the journal a restarted worker
	// recovers its graphs, their PATCHes and its unfinished jobs from
	// (recover.go).
	DataDir string
	// WorkerID names this process in a sharded deployment: job ids get it
	// as a prefix (so the router can route them back), responses carry it
	// in an X-Hdeserve-Worker header, and GET /shardz reports it. Empty
	// (single-process mode) disables all three.
	WorkerID string
}

func (c Config) withDefaults() Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = DefaultCacheBytes
	}
	if c.MaxConcurrentRenders <= 0 {
		c.MaxConcurrentRenders = runtime.GOMAXPROCS(0)
	}
	if c.MaxUploadBytes == 0 {
		c.MaxUploadBytes = DefaultMaxUploadBytes
	}
	return c
}

// view is one graph's current layout, immutable once installed; a new
// layout for the same graph replaces the whole view under s.mu. gen
// namespaces the render-cache keys so a render of a replaced layout that
// was in flight across the install is never served.
type view struct {
	name   string
	gen    int
	g      *graph.CSR
	layout *core.Layout
	report *core.Report
	opt    core.Options // a PATCH's job and zoom layouts reuse these; Basis is what the job updates
	stats  []byte       // per-graph /stats body, computed at install
}

// cacheKey namespaces a render kind under the view's graph, the view
// generation, and the catalog entry's content generation. The catalog
// generation is read at request time, so a PATCH (catalog.Replace) orphans
// every cached render of the old graph immediately — even before a new
// layout installs.
func (s *Server) cacheKey(v *view, kind string) string {
	catGen, _ := s.cat.Generation(v.name)
	return fmt.Sprintf("%s%d:%d:%s", keyPrefix(v.name), v.gen, catGen, kind)
}

// etag is the validator of a response rendered under key: the key plus the
// feed's boot id, since both generations in the key start over when the
// process does, and a tag issued by an earlier boot must not earn a 304.
func (s *Server) etag(key string) string { return `"` + key + ":" + s.feed.boot + `"` }

// keyPrefix starts every cache key of the named graph and of no other:
// catalog names hold no ':'.
func keyPrefix(name string) string { return "g:" + name + ":" }

// changed is what install, the view releases and the catalog's OnChange
// hook (under the catalog lock) call once the named graph's view or
// catalog generation has moved. Every render cached before that carries a
// key no request will form again, so it is dropped here rather than left to
// fill the budget, and the feed tells the fronting routers and the SSE
// streams.
func (s *Server) changed(name string) {
	prefix := keyPrefix(name)
	s.cache.DropIf(func(key string, _ []byte) bool { return strings.HasPrefix(key, prefix) })
	s.feed.changed(name)
}

// Server fronts a catalog of graphs: it renders installed layouts and
// runs new ones as async jobs.
type Server struct {
	cfg Config
	cat *catalog.Catalog
	eng *jobs.Engine

	mu    sync.RWMutex
	views map[string]*view
	gens  map[string]int
	// graphMu orders catalog changes (upload, DELETE, PATCH) with their
	// journal frames: a restart replays the file in order and must meet
	// each batch with the graph it was applied to.
	graphMu sync.Mutex

	cache  *httpcache.LRU[[]byte]
	flight httpcache.Flight[[]byte]
	// canvases is the expensive-render concurrency limit and the canvas
	// pool in one: a render holds one of the MaxConcurrentRenders
	// canvases for its duration, so their memory is bounded by that flag.
	canvases chan *render.Canvas

	done    chan struct{} // closed by Hangup; ends the feed and SSE handlers
	closing sync.Once

	// feed numbers every change cacheKey can see and pushes it to the
	// fronting routers and the SSE streams (see feed.go).
	feed *feed

	reg              *obs.Registry
	zoomRenders      *obs.Counter // core.Zoom layouts actually executed
	viewRenders      *obs.Counter // all renders actually executed (any kind)
	renderErrors     *obs.Counter
	mutationsApplied *obs.Counter   // graph mutations applied via PATCH
	warmLayouts      *obs.Counter   // installs that took the warm-start path
	coldLayouts      *obs.Counter   // installs that ran the full pipeline
	bfsTopDown       *obs.Counter   // BFS-phase levels run top-down
	bfsBottomUp      *obs.Counter   // BFS-phase levels run bottom-up
	bfsSwitches      *obs.Counter   // BFS-phase direction changes (≤ 2 per healthy traversal)
	bfsScannedEdges  *obs.Counter   // adjacency entries BFS actually examined
	renderSeconds    *obs.Histogram // render-cache misses only: layout (zoom) + draw + encode

	ready atomic.Bool
}

// New computes the global layout of g and returns a ready-to-serve
// Server with the default Config.
func New(g *graph.CSR, opt core.Options) (*Server, error) {
	return NewWithConfig(g, opt, Config{})
}

// NewWithConfig computes the global layout of g, registers it as the
// pinned catalog entry "default", and returns a ready-to-serve Server
// with the job engine running. The layout-quality sweep for /stats runs
// once here rather than per request (core.Evaluate is O(m)).
func NewWithConfig(g *graph.CSR, opt core.Options, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	layout, rep, err := core.ParHDE(g, opt)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	s := &Server{
		cfg:      cfg,
		cat:      catalog.New(cfg.CatalogBytes),
		views:    map[string]*view{},
		gens:     map[string]int{},
		done:     make(chan struct{}),
		canvases: make(chan *render.Canvas, cfg.MaxConcurrentRenders),
		reg:      reg,
		feed:     newFeed(reg),
		cache: httpcache.NewLRU(cfg.CacheBytes,
			func(b []byte) int64 { return int64(len(b)) }, reg, "render_cache"),
		zoomRenders:      reg.Counter("zoom_layouts_total"),
		viewRenders:      reg.Counter("view_renders_total"),
		renderErrors:     reg.Counter("render_errors_total"),
		mutationsApplied: reg.Counter("graph_mutations_total"),
		warmLayouts:      reg.Counter(`layouts_installed_total{mode="warm"}`),
		coldLayouts:      reg.Counter(`layouts_installed_total{mode="cold"}`),
		bfsTopDown:       reg.Counter(`bfs_steps_total{direction="topdown"}`),
		bfsBottomUp:      reg.Counter(`bfs_steps_total{direction="bottomup"}`),
		bfsSwitches:      reg.Counter("bfs_direction_switches_total"),
		bfsScannedEdges:  reg.Counter("bfs_scanned_edges_total"),
		renderSeconds:    reg.Histogram("render_seconds"),
	}
	for i := 0; i < cfg.MaxConcurrentRenders; i++ {
		s.canvases <- new(render.Canvas)
	}
	reg.GaugeFunc("render_cache_entries", func() float64 { return float64(s.cache.Len()) })
	reg.GaugeFunc("catalog_graphs", func() float64 { return float64(s.cat.Len()) })
	reg.GaugeFunc("catalog_bytes", func() float64 { return float64(s.cat.Bytes()) })
	for _, p := range rep.Breakdown.Phases() {
		d := p.D
		reg.GaugeFunc(fmt.Sprintf("parhde_phase_seconds{phase=%q}", p.Name),
			func() float64 { return d.Seconds() })
	}

	s.cat.OnChange(s.changed)
	if err := s.cat.AddPinned(DefaultGraph, g, "startup"); err != nil {
		return nil, err
	}
	s.recordBFS(rep)
	s.install(DefaultGraph, g, layout, rep, opt, core.Evaluate(g, layout), rep.Breakdown.Total)

	idPrefix := ""
	if cfg.WorkerID != "" {
		idPrefix = cfg.WorkerID + "-"
	}
	var jrn *jobs.Journal
	if cfg.DataDir != "" {
		jrn = s.openJournal()
	}
	s.eng = jobs.New(s.cat, jobs.Config{
		Workers:    cfg.Workers,
		IDPrefix:   idPrefix,
		QueueDepth: cfg.QueueDepth,
		ResultTTL:  cfg.JobsTTL,
		MaxResults: cfg.MaxResults,
		Journal:    jrn,
		Metrics:    reg,
		Logger:     cfg.AccessLog,
		OnDone:     s.onJobDone,
	})
	s.resubmitPending()
	s.ready.Store(true)
	return s, nil
}

// Close shuts down the job engine — pending and running jobs are
// cancelled and the worker pool drains — and hangs up as Hangup does.
// The render endpoints keep working on the installed views.
func (s *Server) Close() {
	s.Hangup()
	s.eng.Close()
}

// Hangup ends every SSE stream and invalidation feed. These responses
// never finish on their own, so a graceful http.Server.Shutdown that is
// to return before its deadline must call it first (RegisterOnShutdown).
func (s *Server) Hangup() {
	s.closing.Do(func() { close(s.done) })
}

// onJobDone installs a completed job's layout as its graph's current
// view (runs on the worker goroutine).
func (s *Server) onJobDone(j *jobs.Job) {
	if j.State() != jobs.StateDone {
		return
	}
	res := j.Result()
	if res == nil || res.Layout == nil {
		return
	}
	rep := res.Report
	if rep.Warm {
		s.warmLayouts.Inc()
	} else {
		s.coldLayouts.Inc()
	}
	s.recordBFS(rep)
	s.install(j.Graph(), j.Input(), res.Layout, rep, j.Config().Layout, res.Quality, rep.Breakdown.Total)
}

// recordBFS folds a run's traversal-direction split into the BFS
// counters (a warm run traverses only when it builds its basis).
func (s *Server) recordBFS(rep *core.Report) {
	t := rep.BFSTotals()
	s.bfsTopDown.Add(int64(t.TopDownSteps))
	s.bfsBottomUp.Add(int64(t.BottomUpSteps))
	s.bfsSwitches.Add(int64(t.Switches))
	s.bfsScannedEdges.Add(t.ScannedEdges)
}

// install makes (layout, report) the current view of the named graph and
// precomputes its /stats body.
func (s *Server) install(name string, g *graph.CSR, layout *core.Layout, rep *core.Report,
	opt core.Options, q core.Quality, layoutTime time.Duration) {
	stats, err := json.Marshal(map[string]interface{}{
		"graph":          name,
		"vertices":       g.NumV,
		"edges":          g.NumEdges(),
		"maxDegree":      g.MaxDegree(),
		"hallRatio":      q.HallRatio,
		"meanEdgeLength": q.MeanEdgeLength,
		"edgeLengthCV":   q.EdgeLengthCV,
		"layoutSeconds":  layoutTime.Seconds(),
	})
	if err != nil {
		stats = []byte("{}")
	}
	// A warm layout keeps the basis its job updated, so every PATCH is
	// measured against the last cold layout; a cold one starts a basis of
	// its own, built only if a PATCH ever needs it.
	if !rep.Warm || opt.Basis == nil {
		opt.Basis = core.NewBasis(g, opt)
	}
	s.mu.Lock()
	s.gens[name]++
	s.views[name] = &view{
		name:   name,
		gen:    s.gens[name],
		g:      g,
		layout: layout,
		report: rep,
		opt:    opt,
		stats:  append(stats, '\n'),
	}
	s.mu.Unlock()
	s.changed(name)
}

// viewOf returns the named graph's current view. The boolean pair
// distinguishes "graph unknown" (404) from "known but not laid out yet"
// (409). The catalog decides whether the graph exists — the lookup
// counts as a use, so a graph being viewed is not the LRU eviction
// victim — and a view whose graph the catalog has evicted is released
// here rather than served.
func (s *Server) viewOf(name string) (v *view, known, laidOut bool) {
	_, known = s.cat.Get(name)
	s.mu.RLock()
	v = s.views[name]
	s.mu.RUnlock()
	if known || v == nil {
		return v, known, v != nil
	}
	s.dropView(name, v)
	return nil, false, false
}

// dropView releases the named graph's view (only while it still is v, when
// v is non-nil) and tells the feed, since a response rendered from the
// released view may be sitting in a router.
func (s *Server) dropView(name string, v *view) {
	s.mu.Lock()
	if v == nil || s.views[name] == v {
		delete(s.views, name)
	}
	s.mu.Unlock()
	s.changed(name)
}

// Report returns the startup layout run's per-phase report.
func (s *Server) Report() *core.Report {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v, ok := s.views[DefaultGraph]; ok {
		return v.report
	}
	return nil
}

// Metrics returns the server's metric registry (also served on /metrics).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Catalog returns the server's graph catalog.
func (s *Server) Catalog() *catalog.Catalog { return s.cat }

// Jobs returns the server's layout job engine.
func (s *Server) Jobs() *jobs.Engine { return s.eng }

// routes are the label values the access-log middleware may emit; every
// other path collapses into a prefix family or "other" to bound metric
// cardinality.
var routes = map[string]bool{
	"/": true, "/layout.png": true, "/layout.svg": true, "/zoom.png": true,
	"/stats": true, "/healthz": true, "/shardz": true, "/metrics": true,
	"/graphs": true, "/jobs": true, httpcache.FeedPath: true,
}

func routeOf(r *http.Request) string {
	if routes[r.URL.Path] {
		return r.URL.Path
	}
	switch {
	case strings.HasPrefix(r.URL.Path, "/debug/pprof/"):
		return "/debug/pprof/"
	case strings.HasPrefix(r.URL.Path, "/graphs/"):
		return "/graphs/"
	case strings.HasPrefix(r.URL.Path, "/jobs/"):
		return "/jobs/"
	}
	return "other"
}

// apiRoutes is the authoritative mux registration table: every pattern
// the server handles, in the order API.md documents them. Handler builds
// the mux from it, and the docs cross-check test holds API.md to exactly
// this list — a route added here without documentation (or vice versa)
// fails CI.
var apiRoutes = []struct {
	pattern string
	fn      func(*Server, http.ResponseWriter, *http.Request)
}{
	{"/", (*Server).handleIndex},
	{"/layout.png", (*Server).handleLayoutPNG},
	{"/layout.svg", (*Server).handleLayoutSVG},
	{"/zoom.png", (*Server).handleZoom},
	{"/stats", (*Server).handleStats},
	{"/healthz", (*Server).handleHealthz},
	{"GET /shardz", (*Server).handleShardz},
	{"GET /graphs", (*Server).handleGraphsList},
	{"POST /graphs", (*Server).handleGraphUpload},
	{"DELETE /graphs/{name}", (*Server).handleGraphDelete},
	{"GET /graphs/{name}/layout.png", (*Server).handleLayoutPNG},
	{"GET /graphs/{name}/layout.svg", (*Server).handleLayoutSVG},
	{"GET /graphs/{name}/zoom.png", (*Server).handleZoom},
	{"GET /graphs/{name}/stats", (*Server).handleStats},
	{"PATCH /graphs/{name}", (*Server).handleGraphMutate},
	{"GET /graphs/{name}/stream", (*Server).handleGraphStream},
	{"POST /jobs", (*Server).handleJobSubmit},
	{"GET /jobs", (*Server).handleJobsList},
	{"GET /jobs/{id}", (*Server).handleJobGet},
	{"DELETE /jobs/{id}", (*Server).handleJobCancel},
}

// RoutePatterns returns every mux pattern of the client-facing API (the
// apiRoutes table plus /metrics, which mounts the registry's own
// handler). The docs cross-check test and the router reuse it. The
// fleet-internal invalidation feed is mounted beside /metrics and is
// deliberately not listed: a router consumes it and does not re-serve it.
func RoutePatterns() []string {
	out := make([]string, 0, len(apiRoutes)+1)
	for _, rt := range apiRoutes {
		out = append(out, rt.pattern)
	}
	return append(out, "/metrics")
}

// Handler returns the instrumented HTTP mux: the single-graph viewer
// endpoints (operating on the "default" graph), the catalog/jobs REST
// API, /healthz, /shardz, /metrics, and (when enabled) /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range apiRoutes {
		fn := rt.fn
		mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) { fn(s, w, r) })
	}
	mux.Handle("/metrics", s.reg.Handler())
	mux.HandleFunc("GET "+httpcache.FeedPath, s.handleInvalidations)

	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	var h http.Handler = mux
	if s.cfg.WorkerID != "" {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Hdeserve-Worker", s.cfg.WorkerID)
			inner.ServeHTTP(w, r)
		})
	}
	return obs.Middleware(s.reg, s.cfg.AccessLog, routeOf, h)
}

// handleShardz reports this process's slice of the sharded deployment:
// its worker id, the graphs resident in its catalog, and readiness. The
// router polls it as the combined health + identity probe; operators can
// hit it directly for a shard inventory.
func (s *Server) handleShardz(w http.ResponseWriter, r *http.Request) {
	infos := s.cat.List()
	names := make([]string, len(infos))
	for i, in := range infos {
		names[i] = in.Name
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"worker":       s.cfg.WorkerID,
		"graphs":       names,
		"catalogBytes": s.cat.Bytes(),
		"ready":        s.ready.Load(),
	})
}

var page = template.Must(template.New("index").Parse(`<!doctype html>
<html><head><title>ParHDE interactive layout</title></head>
<body style="font-family:sans-serif">
<h1>ParHDE layout — n={{.N}}, m={{.M}}</h1>
<p>Global structure below. Zoom into a vertex's neighborhood:</p>
<form action="/" method="get">
  vertex <input name="v" value="{{.V}}" size="9">
  hops <input name="hops" value="{{.Hops}}" size="3">
  <input type="submit" value="zoom">
</form>
{{if .ShowZoom}}<h2>{{.Hops}}-hop neighborhood of vertex {{.V}}</h2>
<img src="/zoom.png?v={{.V}}&hops={{.Hops}}" width="45%">{{end}}
<h2>Global layout</h2>
<img src="/layout.png" width="45%">
</body></html>`))

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	v, ok := s.lookupView(w, r)
	if !ok {
		return
	}
	vtx, hops, ok := parseZoomParams(r, v.g.NumV)
	data := struct {
		N, M     int64
		V        int32
		Hops     int
		ShowZoom bool
	}{int64(v.g.NumV), v.g.NumEdges(), vtx, hops, ok && r.URL.Query().Get("v") != ""}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := page.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// lookupView resolves the request's graph — {name} on a /graphs/{name}/…
// route, "default" on the single-graph viewer twin of it — to an
// installed view, writing the right error (404 unknown, 409
// known-but-not-laid-out) when it cannot.
func (s *Server) lookupView(w http.ResponseWriter, r *http.Request) (*view, bool) {
	name := defaultStr(r.PathValue("name"), DefaultGraph)
	s.stampVersion(w, name) // before the view is read: see feed.changed
	v, known, laidOut := s.viewOf(name)
	switch {
	case laidOut:
		return v, true
	case known:
		writeErr(w, http.StatusConflict,
			fmt.Errorf("graph %q has no layout yet; submit a job with POST /jobs", name))
	default:
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown graph %q", name))
	}
	return nil, false
}

// serveView writes one rendered representation of a view through the
// render cache, with an ETag derived from the render-cache key — which
// already encodes graph name, view generation, and catalog generation — and
// the boot id.
// A fronting router replicates hot tiles into its own LRU; when it has to
// ask (its feed is down, or the graph's version moved), an unchanged key
// costs a 304 instead of a re-download.
func (s *Server) serveView(w http.ResponseWriter, r *http.Request, v *view, kind, ctype string,
	draw func(*render.Canvas) ([]byte, error)) {
	key := s.cacheKey(v, kind)
	body, err := s.renderCached(key, draw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	httpcache.WriteRevalidated(w, r, s.etag(key), ctype, body)
}

func (s *Server) handleLayoutPNG(w http.ResponseWriter, r *http.Request) {
	if v, ok := s.lookupView(w, r); ok {
		s.serveView(w, r, v, "global.png", "image/png", func(c *render.Canvas) ([]byte, error) {
			return c.PNG(v.g, v.layout, render.Options{Size: tileSize})
		})
	}
}

func (s *Server) handleLayoutSVG(w http.ResponseWriter, r *http.Request) {
	if v, ok := s.lookupView(w, r); ok {
		s.serveView(w, r, v, "global.svg", "image/svg+xml", func(*render.Canvas) ([]byte, error) {
			var buf bytes.Buffer
			if err := render.DrawSVG(&buf, v.g, v.layout, render.Options{Size: tileSize}); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		})
	}
}

func (s *Server) handleZoom(w http.ResponseWriter, r *http.Request) {
	v, ok := s.lookupView(w, r)
	if !ok {
		return
	}
	vtx, hops, ok := parseZoomParams(r, v.g.NumV)
	if !ok {
		http.Error(w, "bad v/hops parameters", http.StatusBadRequest)
		return
	}
	s.serveView(w, r, v, fmt.Sprintf("zoom:%d:%d", vtx, hops), "image/png", func(c *render.Canvas) ([]byte, error) {
		s.zoomRenders.Inc()
		z, err := core.Zoom(v.g, vtx, hops, v.opt)
		if err != nil {
			return nil, err
		}
		return c.PNG(z.Subgraph, z.Layout, render.Options{Size: tileSize})
	})
}

// handleStats serves the stats body precomputed at install: there is
// nothing to render, so it bypasses the render cache.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if v, ok := s.lookupView(w, r); ok {
		httpcache.WriteRevalidated(w, r, s.etag(s.cacheKey(v, "stats")), "application/json", v.stats)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		http.Error(w, "layout not ready", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// renderCached returns the cached bytes for key, or renders them exactly
// once no matter how many requests race on a cold key: concurrent callers
// join the in-flight render (singleflight) instead of each running the
// full layout+encode, and distinct in-flight renders queue on the
// concurrency limit so a burst of cold keys cannot fork an unbounded
// number of core.Zoom layouts. The limit's slot is a canvas, which draw
// may use until it returns.
func (s *Server) renderCached(key string, draw func(*render.Canvas) ([]byte, error)) ([]byte, error) {
	if b, ok := s.cache.Get(key); ok {
		return b, nil
	}
	b, _, err := s.flight.Do(key, func() ([]byte, error) {
		// Double-check: the previous flight for this key may have filled
		// the cache between our Get miss and winning the flight slot.
		if b, ok := s.cache.Peek(key); ok {
			return b, nil
		}
		c := <-s.canvases
		defer func() { s.canvases <- c }()
		s.viewRenders.Inc()
		start := time.Now()
		b, err := draw(c)
		s.renderSeconds.ObserveDuration(time.Since(start))
		if err != nil {
			s.renderErrors.Inc()
			return nil, err
		}
		s.cache.Put(key, b)
		return b, nil
	})
	return b, err
}

// tileSize is the side in pixels every view renders at.
const tileSize = 700

func parseZoomParams(r *http.Request, n int) (int32, int, bool) {
	q := r.URL.Query()
	v64, err1 := strconv.ParseInt(defaultStr(q.Get("v"), "0"), 10, 32)
	hops, err2 := strconv.Atoi(defaultStr(q.Get("hops"), "10"))
	if err1 != nil || err2 != nil || v64 < 0 || int(v64) >= n || hops < 1 || hops > 100 {
		return 0, 10, false
	}
	return int32(v64), hops, true
}

func defaultStr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// submitConfig converts an API job request into a pipeline.Config; kept
// here (not api.go) so the option surface lives next to the view types.
func submitConfig(req jobRequest) pipeline.Config {
	return pipeline.Config{
		Layout: core.Options{
			Subspace:   req.Subspace,
			Dims:       req.Dims,
			Seed:       req.Seed,
			PlainOrtho: req.PlainOrtho,
		},
		SkipQuality: req.SkipQuality,
	}
}
