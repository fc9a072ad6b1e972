package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpcache"
	"repro/internal/obs"
)

// Config configures a Router. Zero values get the documented defaults.
type Config struct {
	// Peers are the worker base URLs (e.g. http://127.0.0.1:7101). They
	// are the ring's node ids, so the list must be identical (order
	// aside) on every router instance.
	Peers []string
	// Replication no longer selects behaviour: every graph lives on
	// exactly its ring owner. 0 and 1 are accepted, anything else is an
	// error.
	Replication int
	// HealthInterval is how often each worker's /shardz is probed.
	// Default 2s.
	HealthInterval time.Duration
	// CacheBytes bounds the router's hot-tile LRU. Default 64 MiB;
	// negative disables caching entirely.
	CacheBytes int64
	// MaxUploadBytes bounds a POST /graphs or PATCH body the router will
	// buffer. Default 64 MiB.
	MaxUploadBytes int64
	// Metrics receives router metrics; a fresh registry is created when
	// nil. It is also served on the router's /metrics.
	Metrics *obs.Registry
	// Logger gets access records (Info) and warnings (Warn); nil = obs.Discard.
	Logger *slog.Logger
	// Client performs forwarded requests. Default: 30s total timeout.
	// Streaming (SSE) forwards always use an untimed client regardless.
	Client *http.Client
}

// defaultGraph is the graph name the single-graph viewer endpoints
// (/, /layout.png, ...) resolve to, matching the worker's convention.
const defaultGraph = "default"

// workerHeader is the identity header every worker response carries;
// the router forwards it so clients can see which shard answered.
const workerHeader = "X-Hdeserve-Worker"

// peer is one worker as the router sees it: its fixed base URL, the
// identity and health learned from /shardz probes, and what its
// invalidation feed has said (feed.go).
type peer struct {
	url     string
	healthy atomic.Bool

	// Per-worker series, resolved once at construction.
	forwards, forwardErrs       *obs.Counter
	healthyGauge, feedConnected *obs.Gauge

	mu   sync.Mutex
	id   string // worker id from the last successful probe ("" = never seen)
	feed feedState
}

// setID records the worker id learned from a probe.
func (p *peer) setID(id string) {
	p.mu.Lock()
	p.id = id
	p.mu.Unlock()
}

// workerID returns the last-known worker id, or "" if never probed.
func (p *peer) workerID() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.id
}

// Router is the stateless front end of a sharded hdeserve deployment.
// It owns no graphs and runs no layouts: every request is routed by
// consistent hash of the graph name (or by worker prefix of a job id)
// to the one worker that owns it, and hot rendered tiles are kept in a
// local LRU that the owners' invalidation feeds keep coherent (feed.go) —
// which is also the only read path that survives the owner being down.
// "Stateless" is load-bearing: a router restart loses only cache heat, so
// any number of routers can front one fleet.
type Router struct {
	cfg    Config
	ring   *Ring
	peers  map[string]*peer // by base URL
	reg    *obs.Registry
	cache  *httpcache.LRU[*tile]
	flight httpcache.Flight[fetched]

	client       *http.Client
	streamClient *http.Client // SSE and feed: must outlive any request timeout
	probeClient  *http.Client

	forwardDur    *obs.Histogram
	invalidations *obs.Counter // change frames accepted from a graph's owner
	revalidations *obs.Counter // forwards made only to revalidate a held tile

	ctx    context.Context // cancelled by Hangup: stops the health loop, the feeds and the proxied streams
	cancel context.CancelFunc
	done   chan struct{}  // closed when the health loop has exited
	feeds  sync.WaitGroup // running feed connections
}

// NewRouter builds a router over cfg.Peers, probes every worker once
// synchronously (so routing decisions are informed from the first
// request), and starts the background health loop. Each probe also dials
// the worker's invalidation feed when none is open, without waiting for
// it. Callers must Close the router.
func NewRouter(cfg Config) (*Router, error) {
	if len(cfg.Peers) == 0 {
		return nil, errors.New("shard: router needs at least one peer")
	}
	if cfg.Replication != 0 && cfg.Replication != 1 {
		return nil, fmt.Errorf("shard: replication %d is not supported; each graph lives on its ring owner only", cfg.Replication)
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 64 << 20
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}

	rt := &Router{
		cfg:           cfg,
		ring:          NewRing(cfg.Peers, 0),
		peers:         map[string]*peer{},
		reg:           cfg.Metrics,
		client:        cfg.Client,
		streamClient:  &http.Client{},
		probeClient:   &http.Client{Timeout: cfg.HealthInterval},
		forwardDur:    cfg.Metrics.Histogram("router_forward_seconds"),
		invalidations: cfg.Metrics.Counter("router_invalidations_total"),
		revalidations: cfg.Metrics.Counter("router_revalidations_total"),
		done:          make(chan struct{}),
	}
	rt.ctx, rt.cancel = context.WithCancel(context.Background())
	for _, u := range rt.ring.Nodes() {
		rt.peers[u] = &peer{
			url:           u,
			forwards:      rt.reg.Counter(fmt.Sprintf("router_forward_total{worker=%q}", u)),
			forwardErrs:   rt.reg.Counter(fmt.Sprintf("router_forward_errors_total{worker=%q}", u)),
			healthyGauge:  rt.reg.Gauge(fmt.Sprintf("router_worker_healthy{worker=%q}", u)),
			feedConnected: rt.reg.Gauge(fmt.Sprintf("router_feed_connected{worker=%q}", u)),
		}
	}
	rt.cache = httpcache.NewLRU(cfg.CacheBytes, (*tile).weight, rt.reg, "router_cache")

	rt.probeAll()
	go rt.healthLoop()
	return rt, nil
}

// Hangup ends every proxied SSE stream, hangs up the feeds and stops the
// health loop. A proxied stream never finishes on its own, so a graceful
// http.Server.Shutdown that is to return before its deadline must call it
// first (RegisterOnShutdown); reads that are still in flight revalidate
// at the owner meanwhile.
func (rt *Router) Hangup() { rt.cancel() }

// Close hangs up as Hangup does and returns when the health loop and the
// feeds have exited. Other in-flight forwards are not interrupted.
func (rt *Router) Close() {
	rt.Hangup()
	<-rt.done
	rt.feeds.Wait()
}

// --- health ------------------------------------------------------------

// shardzBody is the worker /shardz response the router consumes.
type shardzBody struct {
	Worker string `json:"worker"`
	Ready  bool   `json:"ready"`
}

// healthLoop probes every peer each HealthInterval until Close.
func (rt *Router) healthLoop() {
	defer close(rt.done)
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

// probeAll health-checks every peer concurrently and waits for all.
func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, p := range rt.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			rt.probe(p)
		}(p)
	}
	wg.Wait()
}

// probe marks p healthy iff its /shardz answers 200 with ready=true,
// and records the worker id it reports (the id→URL map is how job-id
// prefixes route). It then tends p's invalidation feed.
func (rt *Router) probe(p *peer) {
	resp, err := rt.probeClient.Get(p.url + "/shardz")
	healthy := false
	if err == nil {
		var body shardzBody
		if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&body) == nil {
			healthy = body.Ready
			if body.Worker != "" {
				p.setID(body.Worker)
			}
		}
		resp.Body.Close()
	}
	was := p.healthy.Swap(healthy)
	if was != healthy {
		rt.cfg.Logger.Warn("worker health changed", "worker", p.workerID(), "url", p.url, "healthy", healthy)
	}
	v := int64(0)
	if healthy {
		v = 1
	}
	p.healthyGauge.Set(v)
	rt.tendFeed(p, healthy)
}

// owner returns the one worker that holds the named graph.
func (rt *Router) owner(name string) *peer {
	return rt.peers[rt.ring.Owner(name)]
}

// Workers returns the last-probed worker id for each peer URL (peers
// never probed successfully map to ""). Tests and /shardz use it.
func (rt *Router) Workers() map[string]string {
	out := map[string]string{}
	for u, p := range rt.peers {
		out[u] = p.workerID()
	}
	return out
}

// --- forwarding core ---------------------------------------------------

// do sends method+pathQuery with body to a peer, on behalf of the client's
// request r, and returns the response, recording per-worker forward
// metrics. The forward carries r's request ID. Every proxied request
// except the SSE stream goes through it, exactly once: nothing is
// retried, so a worker's 429 or 5xx reaches the client untouched.
func (rt *Router) do(r *http.Request, method string, p *peer, pathQuery string, hdr http.Header, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, p.url+pathQuery, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	req.Header[obs.RequestIDHeader] = r.Header[obs.RequestIDHeader]
	p.forwards.Inc()
	start := time.Now()
	resp, err := rt.client.Do(req)
	rt.forwardDur.ObserveDuration(time.Since(start))
	if err != nil {
		p.forwardErrs.Inc()
	}
	return resp, err
}

// forward sends the client's request — same method, path and query, plus
// the buffered body under the client's Content-Type when there is one —
// to p.
func (rt *Router) forward(r *http.Request, p *peer, body []byte) (*http.Response, error) {
	var hdr http.Header
	if body != nil {
		hdr = http.Header{"Content-Type": r.Header.Values("Content-Type")}
	}
	return rt.do(r, r.Method, p, r.URL.RequestURI(), hdr, body)
}

// relay forwards the client's request to p and copies the worker's answer
// back. An unreachable worker is the router's own 502.
func (rt *Router) relay(w http.ResponseWriter, r *http.Request, p *peer, body []byte) {
	resp, err := rt.forward(r, p, body)
	if err != nil {
		writeRouterErr(w, http.StatusBadGateway, err)
		return
	}
	defer resp.Body.Close()
	copyResponse(w, resp)
}

// relayChange is relay for a request that changes the named graph (PATCH,
// DELETE, upload). Before the client sees the answer the graph's tiles are
// dropped and the version on the worker's answer is recorded, so the
// client's next read through this router is a forward whether or not the
// feed has delivered the change yet — and a fetch that was in flight
// across the change comes back older than that version, so it is not
// trusted either.
func (rt *Router) relayChange(w http.ResponseWriter, r *http.Request, name string, body []byte) {
	p := rt.owner(name)
	epoch := p.feedEpoch()
	resp, err := rt.forward(r, p, body)
	if err == nil {
		defer resp.Body.Close()
		p.sawVersion(name, resp.Header, epoch)
	}
	rt.cache.DropIf(func(_ string, t *tile) bool { return t.graph == name })
	if err != nil {
		writeRouterErr(w, http.StatusBadGateway, err)
		return
	}
	copyResponse(w, resp)
}

// readBody buffers a request body of at most limit bytes, answering 413
// (or 400 for a broken upload) itself when it cannot.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		return body, true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeRouterErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", limit))
	} else {
		writeRouterErr(w, http.StatusBadRequest, err)
	}
	return nil, false
}

// passHeaders are the upstream response headers forwarded to clients, in
// canonical form. A worker echoes the request ID the router sent it, which
// is the one the router's own access middleware already answers under.
var passHeaders = []string{"Content-Type", "Etag", workerHeader, obs.RequestIDHeader}

// relayBufs holds copyResponse's copy buffers. The client's writer (the
// access log's wrapper) has no ReadFrom, so io.Copy would allocate 32 KB
// for every relayed body, most of them a status or stats object.
var relayBufs = sync.Pool{New: func() any { return new([4 << 10]byte) }}

// copyResponse relays an upstream response (selected headers, status,
// body) to the client.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	for _, k := range passHeaders {
		if vs := resp.Header[k]; len(vs) > 0 && vs[0] != "" {
			w.Header()[k] = vs[:1]
		}
	}
	w.WriteHeader(resp.StatusCode)
	buf := relayBufs.Get().(*[4 << 10]byte)
	_, _ = io.CopyBuffer(w, resp.Body, buf[:])
	relayBufs.Put(buf)
}

// errNoWorker is returned when no worker answered a fan-out.
var errNoWorker = errors.New("shard: no worker could serve the request")

// writeRouterErr writes the router's own JSON error envelope (same
// shape as the worker API's).
func writeRouterErr(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// --- cached reads ------------------------------------------------------

// tile is one cached render (or stats body) as served by a worker: the
// payload, the headers the router needs to revalidate and re-serve it,
// and where it stands in the owner's change history. The ETag is the
// worker's generation-keyed cache key, so the router never has to
// understand generations — a conditional GET answering 304 proves the
// bytes are still current. Tiles are immutable; a revalidation that moves
// epoch or version replaces the tile.
type tile struct {
	graph string // the graph it renders, whatever alias the key used
	etag  string
	ctype string
	body  []byte
	// epoch is the owner's feed epoch the fetch started under and version
	// the graph version the worker stamped on its answer (0 = none).
	// peer.current reads them.
	epoch, version uint64
}

// weight is the tile's charge against the cache byte budget.
func (t *tile) weight() int64 {
	return int64(len(t.body) + len(t.etag) + len(t.ctype) + len(t.graph))
}

// fetched is the result of one upstream read as seen by the
// singleflight: a servable tile, or (tile == nil) the worker's non-200
// answer to pass on as it came.
type fetched struct {
	tile   *tile
	status int
	ctype  string
	body   []byte
}

// serveCachedView handles the four cacheable per-graph reads
// (layout.png, layout.svg, zoom.png, stats). Cache key is the full
// path+query. A cached tile the owner's feed vouches for (peer.current)
// is answered here, with no forward and no flight call; anything else —
// a miss, a tile the graph's version has moved past, a feed that is not
// live — goes through fetchTile.
func (rt *Router) serveCachedView(name string, w http.ResponseWriter, r *http.Request) {
	key := r.URL.RequestURI()
	p := rt.owner(name)
	cached, _ := rt.cache.Get(key)
	if cached != nil && p.current(cached, time.Now()) {
		httpcache.WriteRevalidated(w, r, cached.etag, cached.ctype, cached.body)
		return
	}
	f, _, err := rt.flight.Do(key, func() (fetched, error) {
		return rt.fetchTile(r, p, name, key, cached)
	})
	if err != nil {
		writeRouterErr(w, http.StatusBadGateway, err)
		return
	}
	if f.tile == nil {
		w.Header().Set("Content-Type", f.ctype)
		w.WriteHeader(f.status)
		_, _ = w.Write(f.body)
		return
	}
	httpcache.WriteRevalidated(w, r, f.tile.etag, f.tile.ctype, f.tile.body)
}

// maxErrorBody bounds the worker error envelope a cached view passes on.
const maxErrorBody = 64 << 10

// fetchTile resolves one cacheable read of the named graph against its
// owner p, revalidating the cached copy when there is one: the one miss
// path, and the path every read takes while p's feed is not live. The
// tile it returns carries the feed epoch read before the forward and the
// version on the worker's answer, so a change that overtakes the fetch
// leaves the tile behind the graph's newest version: it is served to this
// caller, cached for its ETag, and not trusted. Non-200 answers are
// reported with a nil tile (and are never cached — a 404 must vanish the
// moment the graph is uploaded). r is the request that leads the flight.
func (rt *Router) fetchTile(r *http.Request, p *peer, name, key string, cached *tile) (fetched, error) {
	var hdr http.Header
	if cached != nil {
		hdr = http.Header{"If-None-Match": {cached.etag}}
		rt.revalidations.Inc()
	}
	epoch := p.feedEpoch()
	resp, err := rt.do(r, http.MethodGet, p, key, hdr, nil)
	if err != nil {
		if cached != nil {
			// The owner is down but we hold a copy: stale beats 502.
			rt.cfg.Logger.Warn("serving stale tile", "key", key, "requestId", r.Header.Get(obs.RequestIDHeader), "err", err)
			return fetched{tile: cached}, nil
		}
		return fetched{}, err
	}
	defer resp.Body.Close()
	version := p.sawVersion(name, resp.Header, epoch)
	var t *tile
	switch {
	case resp.StatusCode == http.StatusNotModified && cached != nil:
		if cached.epoch == epoch && cached.version == version {
			return fetched{tile: cached}, nil
		}
		t = &tile{graph: name, epoch: epoch, version: version,
			etag: cached.etag, ctype: cached.ctype, body: cached.body}
	case resp.StatusCode == http.StatusOK:
		body, err := readTile(resp, rt.cfg.MaxUploadBytes)
		if err != nil {
			return fetched{}, err
		}
		t = &tile{graph: name, epoch: epoch, version: version,
			etag: resp.Header.Get("ETag"), ctype: resp.Header.Get("Content-Type"), body: body}
	default:
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		if err != nil {
			return fetched{}, err
		}
		return fetched{status: resp.StatusCode, ctype: resp.Header.Get("Content-Type"), body: body}, nil
	}
	if t.etag != "" && rt.cfg.CacheBytes > 0 {
		rt.cache.Put(key, t)
	}
	return fetched{tile: t}, nil
}

// readTile reads a worker's 200 body. With a declared Content-Length it
// reads into a slice of exactly that size, so a cached tile holds no
// capacity beyond the bytes (*tile).weight charges. A chunked body, or a
// length above limit that is not to be trusted with an up-front
// allocation, is read by io.ReadAll's doubling as before.
func readTile(resp *http.Response, limit int64) ([]byte, error) {
	if n := resp.ContentLength; n > 0 && n <= limit {
		body := make([]byte, n)
		_, err := io.ReadFull(resp.Body, body)
		return body, err
	}
	return io.ReadAll(resp.Body)
}

// --- handlers ----------------------------------------------------------

// routerRouteOf bounds the access-log route label, mirroring the
// worker's routeOf.
func routerRouteOf(r *http.Request) string {
	switch r.URL.Path {
	case "/", "/layout.png", "/layout.svg", "/zoom.png", "/stats",
		"/healthz", "/shardz", "/metrics", "/graphs", "/jobs":
		return r.URL.Path
	}
	switch {
	case strings.HasPrefix(r.URL.Path, "/graphs/"):
		return "/graphs/"
	case strings.HasPrefix(r.URL.Path, "/jobs/"):
		return "/jobs/"
	}
	return "other"
}

// Handler returns the router's instrumented HTTP mux. It exposes the
// same API surface as a worker (see internal/server.RoutePatterns), so
// clients cannot tell a router from a single-process hdeserve.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	// The HTML viewer page is proxied to the default graph's owner, uncached.
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, r *http.Request) {
		rt.relay(w, r, rt.owner(defaultGraph), nil)
	})
	for _, p := range []string{"/layout.png", "/layout.svg", "/zoom.png", "/stats"} {
		mux.HandleFunc("GET "+p, func(w http.ResponseWriter, r *http.Request) {
			rt.serveCachedView(defaultGraph, w, r)
		})
		mux.HandleFunc("GET /graphs/{name}"+p, func(w http.ResponseWriter, r *http.Request) {
			rt.serveCachedView(r.PathValue("name"), w, r)
		})
	}
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /shardz", rt.handleShardz)
	mux.Handle("GET /metrics", rt.reg.Handler())

	mux.HandleFunc("GET /graphs", rt.handleGraphsList)
	mux.HandleFunc("POST /graphs", rt.handleGraphUpload)
	mux.HandleFunc("DELETE /graphs/{name}", rt.handleGraphDelete)
	mux.HandleFunc("PATCH /graphs/{name}", rt.handleGraphMutate)
	mux.HandleFunc("GET /graphs/{name}/stream", rt.handleStream)

	mux.HandleFunc("POST /jobs", rt.handleJobSubmit)
	mux.HandleFunc("GET /jobs", rt.handleJobsList)
	mux.HandleFunc("GET /jobs/{id}", rt.handleJobByID)
	mux.HandleFunc("DELETE /jobs/{id}", rt.handleJobByID)

	return obs.Middleware(rt.reg, rt.cfg.Logger, routerRouteOf, mux)
}

// handleHealthz answers 200 while at least one worker is healthy — the
// router itself holds no state worth reporting on.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	for _, p := range rt.peers {
		if p.healthy.Load() {
			w.Header().Set("Content-Type", "text/plain")
			fmt.Fprintln(w, "ok")
			return
		}
	}
	writeRouterErr(w, http.StatusServiceUnavailable, errors.New("no healthy workers"))
}

// routerShardz is the router's /shardz body: the fleet as it sees it.
type routerShardz struct {
	Router bool              `json:"router"`
	Peers  []routerPeerState `json:"peers"`
}

// routerPeerState is one worker's health entry in the router's /shardz.
type routerPeerState struct {
	URL     string `json:"url"`
	Worker  string `json:"worker,omitempty"`
	Healthy bool   `json:"healthy"`
	// Feed is whether the worker's invalidation feed is live, and Boot the
	// boot id its hello carried: it changes when the worker restarts.
	Feed bool   `json:"feed"`
	Boot string `json:"boot,omitempty"`
}

// handleShardz reports per-worker health and identity — the operator's
// one-stop fleet inventory.
func (rt *Router) handleShardz(w http.ResponseWriter, r *http.Request) {
	out := routerShardz{Router: true}
	for _, u := range rt.ring.Nodes() {
		p := rt.peers[u]
		feed, boot := p.feedStatus(time.Now())
		out.Peers = append(out.Peers, routerPeerState{
			URL: u, Worker: p.workerID(), Healthy: p.healthy.Load(), Feed: feed, Boot: boot,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// --- fleet-wide listings -----------------------------------------------

// listing is the union of the worker GET /graphs and GET /jobs bodies.
type listing struct {
	Graphs []json.RawMessage `json:"graphs"`
	Jobs   []json.RawMessage `json:"jobs"`
	Bytes  int64             `json:"bytes"`
}

// gather GETs path from every healthy worker concurrently, on behalf of
// r, and concatenates what they list, sorted; bytes is the fleet-wide
// resident total. Every worker holds its own pinned "default" graph, so
// that name appears once per worker. ok is false when no worker answered.
func (rt *Router) gather(r *http.Request, path string) (all listing, ok bool) {
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for _, p := range rt.peers {
		if !p.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			resp, err := rt.do(r, http.MethodGet, p, path, nil, nil)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var one listing
			if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&one) != nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			ok = true
			all.Graphs = append(all.Graphs, one.Graphs...)
			all.Jobs = append(all.Jobs, one.Jobs...)
			all.Bytes += one.Bytes
		}(p)
	}
	wg.Wait()
	byText := func(a, b json.RawMessage) int { return bytes.Compare(a, b) }
	slices.SortFunc(all.Graphs, byText)
	slices.SortFunc(all.Jobs, byText)
	return all, ok
}

// handleGraphsList merges every healthy worker's catalog.
func (rt *Router) handleGraphsList(w http.ResponseWriter, r *http.Request) {
	all, ok := rt.gather(r, "/graphs")
	if !ok {
		writeRouterErr(w, http.StatusBadGateway, errNoWorker)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]interface{}{"graphs": all.Graphs, "bytes": all.Bytes})
}

// handleJobsList merges every healthy worker's job list, sorted by id.
func (rt *Router) handleJobsList(w http.ResponseWriter, r *http.Request) {
	all, ok := rt.gather(r, "/jobs")
	if !ok {
		writeRouterErr(w, http.StatusBadGateway, errNoWorker)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]interface{}{"jobs": all.Jobs})
}

// --- /graphs -----------------------------------------------------------

// handleGraphUpload buffers the upload and hands it to the name's owner;
// tiles held under the name belong to whatever graph had it before.
func (rt *Router) handleGraphUpload(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeRouterErr(w, http.StatusBadRequest, errors.New("missing required query parameter: name"))
		return
	}
	if body, ok := readBody(w, r, rt.cfg.MaxUploadBytes); ok {
		rt.relayChange(w, r, name, body)
	}
}

// handleGraphDelete forwards the delete to the owner and drops the
// graph's tiles so they cannot outlive it on the router.
func (rt *Router) handleGraphDelete(w http.ResponseWriter, r *http.Request) {
	rt.relayChange(w, r, r.PathValue("name"), nil)
}

// handleGraphMutate forwards a PATCH to the owner. Mutations are not
// idempotent, so — like every other forward — it is sent exactly once.
func (rt *Router) handleGraphMutate(w http.ResponseWriter, r *http.Request) {
	if body, ok := readBody(w, r, rt.cfg.MaxUploadBytes); ok {
		rt.relayChange(w, r, r.PathValue("name"), body)
	}
}

// streamWriteDeadline bounds each write of a proxied stream to its client:
// two of the worker's one-second stream heartbeats. Every chunk sets it
// afresh, which also lifts the router's WriteTimeout off the response (a
// writer that cannot take a deadline stays bounded by WriteTimeout).
const streamWriteDeadline = 2 * time.Second

// handleStream proxies the SSE layout stream from the graph's owner,
// flushing every chunk so deltas reach the client as they happen. The
// proxy uses an untimed client: a stream is expected to stay open for
// the whole editing session, and ends when the client or the worker does
// or the router hangs up.
func (rt *Router) handleStream(w http.ResponseWriter, r *http.Request) {
	p := rt.owner(r.PathValue("name"))
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(rt.ctx, cancel)()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+r.URL.RequestURI(), nil)
	if err != nil {
		writeRouterErr(w, http.StatusBadGateway, err)
		return
	}
	req.Header[obs.RequestIDHeader] = r.Header[obs.RequestIDHeader]
	p.forwards.Inc()
	resp, err := rt.streamClient.Do(req)
	if err != nil {
		p.forwardErrs.Inc()
		writeRouterErr(w, http.StatusBadGateway, err)
		return
	}
	defer resp.Body.Close()
	for _, k := range []string{"Content-Type", "Cache-Control", "Connection", workerHeader} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	rc := http.NewResponseController(w)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(streamWriteDeadline))
			if _, werr := w.Write(buf[:n]); werr != nil || rc.Flush() != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// --- /jobs -------------------------------------------------------------

// handleJobSubmit peeks the job body's graph name and forwards the
// submission to that graph's owner. Whatever the owner answers — a 429
// from its admission control included — is the client's answer.
func (rt *Router) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, 1<<20)
	if !ok {
		return
	}
	var peek struct {
		Graph string `json:"graph"`
	}
	if err := json.Unmarshal(body, &peek); err != nil {
		writeRouterErr(w, http.StatusBadRequest, fmt.Errorf("malformed job request: %w", err))
		return
	}
	if peek.Graph == "" {
		writeRouterErr(w, http.StatusBadRequest, errors.New("missing required field: graph"))
		return
	}
	rt.relay(w, r, rt.owner(peek.Graph), body)
}

// peerForJobID resolves a job id to the worker that issued it: ids are
// workerID + "-j" + sequence ("w1-j000042" came from worker "w1"). The
// longest matching worker id wins, since ids may themselves contain
// dashes ("us-east-1-j000042") or prefix one another. Nil when no known
// worker matches — then the caller fans out.
func (rt *Router) peerForJobID(id string) *peer {
	var best *peer
	bestLen := 0
	for _, p := range rt.peers {
		if wid := p.workerID(); len(wid) > bestLen && strings.HasPrefix(id, wid+"-j") {
			best, bestLen = p, len(wid)
		}
	}
	return best
}

// handleJobByID routes GET/DELETE /jobs/{id} by worker prefix; ids
// without a resolvable prefix are tried on every healthy worker and the
// first non-404 answer wins.
func (rt *Router) handleJobByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if p := rt.peerForJobID(id); p != nil {
		rt.relay(w, r, p, nil)
		return
	}
	for _, u := range rt.ring.Nodes() {
		p := rt.peers[u]
		if !p.healthy.Load() {
			continue
		}
		resp, err := rt.do(r, r.Method, p, r.URL.Path, nil, nil)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		defer resp.Body.Close()
		copyResponse(w, resp)
		return
	}
	writeRouterErr(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
}
