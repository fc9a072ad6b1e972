package main

import (
	"flag"
	"time"

	"repro/internal/server"
)

// options holds every hdeserve flag. Keeping the full set in one struct
// (and registering it in one place, newFlagSet) lets the docs
// cross-check test enumerate the live flags and hold OPERATIONS.md to
// exactly that list.
type options struct {
	// topology
	workerID       string
	peers          string
	healthInterval time.Duration
	routerCache    int64

	// startup graph
	in       string
	format   string
	demo     bool
	subspace int

	// serving
	addr       string
	cacheBytes int64
	maxRenders int
	pprofOn    bool
	quiet      bool

	// jobs + catalog
	workers      int
	queueDepth   int
	jobsTTL      time.Duration
	dataDir      string
	catalogBytes int64
	maxUpload    int64

	// HTTP hardening
	readTimeout  time.Duration
	writeTimeout time.Duration
	idleTimeout  time.Duration
	drainTimeout time.Duration
}

// newFlagSet registers every hdeserve flag onto a fresh FlagSet bound to
// opt. This is the single authoritative flag table: main parses it, and
// the OPERATIONS.md cross-check test walks it.
func newFlagSet(opt *options) *flag.FlagSet {
	fs := flag.NewFlagSet("hdeserve", flag.ContinueOnError)

	fs.StringVar(&opt.workerID, "worker-id", "",
		"stable worker identity in a fleet; prefixes job ids and the X-Hdeserve-Worker header (empty = unsharded)")
	fs.StringVar(&opt.peers, "peers", "",
		"comma-separated worker base URLs; when set, this process is a router (stateless front end) that forwards to them")
	fs.DurationVar(&opt.healthInterval, "health-interval", 2*time.Second,
		"router worker health-probe interval")
	fs.Int64Var(&opt.routerCache, "router-cache-bytes", 64<<20,
		"router hot-tile cache budget in bytes (negative = disabled)")

	fs.StringVar(&opt.in, "in", "", "input graph file (edge list)")
	fs.StringVar(&opt.format, "format", "edges", "input format: edges, mtx, bin")
	fs.BoolVar(&opt.demo, "demo", false, "serve the built-in plate-with-holes demo mesh")
	fs.IntVar(&opt.subspace, "s", 50, "subspace dimension")
	fs.StringVar(&opt.addr, "addr", "localhost:8080", "listen address")

	fs.Int64Var(&opt.cacheBytes, "cache-bytes", server.DefaultCacheBytes,
		"render cache budget in bytes (negative = unbounded)")
	fs.IntVar(&opt.maxRenders, "max-renders", 0,
		"max concurrently executing renders (0 = GOMAXPROCS)")
	fs.BoolVar(&opt.pprofOn, "pprof", false, "expose /debug/pprof/ endpoints")
	fs.BoolVar(&opt.quiet, "quiet", false, "disable the per-request access log")

	fs.IntVar(&opt.workers, "workers", 0,
		"layout job worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&opt.queueDepth, "queue-depth", 0,
		"bounded job queue depth; further submissions get HTTP 429 (0 = default)")
	fs.DurationVar(&opt.jobsTTL, "jobs-ttl", 0,
		"how long finished jobs stay queryable (0 = default, negative = forever)")
	fs.StringVar(&opt.dataDir, "data-dir", "",
		"directory for the worker's one durable file, jobs.journal (uploaded graphs, their PATCHes and DELETEs, job submissions and results); a restarted worker recovers from it (empty = off)")
	fs.Int64Var(&opt.catalogBytes, "catalog-bytes", 0,
		"graph catalog byte budget; LRU-evicts unpinned graphs (0 = default, negative = unbounded)")
	fs.Int64Var(&opt.maxUpload, "max-upload", 0,
		"per-request graph upload size cap in bytes (0 = default)")

	fs.DurationVar(&opt.readTimeout, "read-timeout", 10*time.Second, "HTTP read timeout")
	fs.DurationVar(&opt.writeTimeout, "write-timeout", 60*time.Second,
		"HTTP write timeout of a response (SSE streams and invalidation feeds set a deadline per write instead)")
	fs.DurationVar(&opt.idleTimeout, "idle-timeout", 2*time.Minute, "HTTP keep-alive idle timeout")
	fs.DurationVar(&opt.drainTimeout, "drain-timeout", 15*time.Second,
		"how long graceful shutdown waits for in-flight requests")

	return fs
}
