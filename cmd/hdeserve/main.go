// Command hdeserve runs the §4.5.2 browser-based interactive layout
// viewer: it lays out a startup graph with ParHDE, then serves renders
// of it — plus a whole catalog of further graphs — over HTTP.
//
// Beyond the single-graph viewer endpoints, the server exposes a REST
// API for production-style use: POST /graphs uploads more graphs into a
// byte-budgeted catalog, and POST /jobs runs layouts asynchronously on a
// bounded worker pool with cancellation (DELETE /jobs/{id}) and
// per-phase progress (GET /jobs/{id}). Graphs are mutable in place:
// PATCH /graphs/{name} applies edge/vertex mutation batches and queues a
// warm layout — the last cold layout's projected problem updated exactly
// for the edges changed since it and solved again — whose coordinate deltas stream
// to GET /graphs/{name}/stream subscribers as versioned Server-Sent
// Events. See API.md for the full endpoint reference.
//
// The same binary scales out. Without -peers it is a worker: the whole
// server in one process, unsharded, or — given a stable -worker-id that
// prefixes its job ids — one shard of a fleet; either can recover its
// catalog and interrupted jobs from a -data-dir after a crash. With -peers
// it is the router: the stateless front end that consistently hashes graph
// names across the peers, forwards each request to the one worker owning
// its graph, and caches hot rendered tiles with ETag revalidation.
// OPERATIONS.md covers the deployment topologies.
//
// The HTTP server is hardened for real traffic: read/write/idle
// timeouts (so slow clients cannot pin connections), a byte-budget
// render cache, Prometheus-style /metrics plus /healthz, optional
// /debug/pprof/, and graceful shutdown on SIGINT/SIGTERM that drains
// in-flight requests and stops the job workers.
//
// Usage:
//
//	hdeserve -in graph.txt -addr :8080
//	hdeserve -demo            # built-in plate mesh, no input file
//	hdeserve -worker-id w1 -demo -addr :8081 -data-dir /var/lib/hde/w1
//	hdeserve -peers http://h1:8081,http://h2:8081 -addr :8080
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	var opt options
	fs := newFlagSet(&opt)
	if err := fs.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		log.Fatal(err)
	}

	if opt.peers == "" {
		runServer(fs, opt)
		return
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "in", "demo", "worker-id", "data-dir":
			log.Fatalf("-%s is a worker flag, and -peers makes this process a router", f.Name)
		}
	})
	runRouter(opt)
}

// runServer is the worker path: load a startup graph, lay it out, serve.
// A -worker-id (job-id prefix + response header + /shardz) makes it one
// shard of a fleet; without one it is unsharded.
func runServer(fs *flag.FlagSet, opt options) {
	var g *graph.CSR
	switch {
	case opt.demo:
		g = gen.PlateWithHoles(120, 120)
	case opt.in != "":
		f, err := os.Open(opt.in)
		if err != nil {
			log.Fatal(err)
		}
		var rerr error
		g, rerr = graph.Read(f, opt.format, graph.BuildOptions{})
		f.Close()
		if rerr != nil {
			log.Fatal(rerr)
		}
	default:
		fs.Usage()
		os.Exit(2)
	}

	cfg := server.Config{
		WorkerID:             opt.workerID,
		CacheBytes:           opt.cacheBytes,
		MaxConcurrentRenders: opt.maxRenders,
		EnablePprof:          opt.pprofOn,
		Workers:              opt.workers,
		QueueDepth:           opt.queueDepth,
		JobsTTL:              opt.jobsTTL,
		DataDir:              opt.dataDir,
		CatalogBytes:         opt.catalogBytes,
		MaxUploadBytes:       opt.maxUpload,
	}
	if !opt.quiet {
		cfg.AccessLog = log.New(os.Stderr, "access ", log.LstdFlags)
	}
	srv, err := server.NewWithConfig(g, core.Options{Subspace: opt.subspace, Seed: 1}, cfg)
	if err != nil {
		log.Fatal(err)
	}

	role := ""
	if opt.workerID != "" {
		role = " as worker " + opt.workerID
	}
	log.Printf("serving layout of n=%d m=%d on http://%s/%s (layout took %v)",
		g.NumV, g.NumEdges(), opt.addr, role,
		srv.Report().Breakdown.Total.Round(time.Millisecond))
	serveUntilSignal(opt, srv.Handler(), srv.Hangup, srv.Close)
}

// runRouter is the stateless front-end path: no graph, no layout, just
// the ring, the fleet, and the tile cache.
func runRouter(opt options) {
	var peers []string
	for _, p := range strings.Split(opt.peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, strings.TrimRight(p, "/"))
		}
	}
	if len(peers) == 0 {
		log.Fatal("-peers names no worker URL")
	}
	cfg := shard.Config{
		Peers:          peers,
		HealthInterval: opt.healthInterval,
		CacheBytes:     opt.routerCache,
		MaxUploadBytes: opt.maxUpload,
	}
	if !opt.quiet {
		cfg.Logger = log.New(os.Stderr, "access ", log.LstdFlags)
	}
	rt, err := shard.NewRouter(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("routing for %d workers on http://%s/", len(peers), opt.addr)
	serveUntilSignal(opt, rt.Handler(), rt.Hangup, rt.Close)
}

// serveUntilSignal runs the hardened HTTP server until SIGINT/SIGTERM,
// then drains in-flight requests and calls shutdown (job-engine close
// for a worker, health-loop and feed stop for a router). hangup runs as
// the drain starts: a worker's SSE streams and invalidation feeds, and a
// router's proxied streams, never finish on their own and would hold the
// drain for its whole timeout.
func serveUntilSignal(opt options, h http.Handler, hangup, shutdown func()) {
	httpSrv := &http.Server{
		Addr:              opt.addr,
		Handler:           h,
		ReadTimeout:       opt.readTimeout,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      opt.writeTimeout,
		IdleTimeout:       opt.idleTimeout,
	}
	httpSrv.RegisterOnShutdown(hangup)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		log.Printf("signal received; draining in-flight requests (up to %v)", opt.drainTimeout)
		shCtx, cancel := context.WithTimeout(context.Background(), opt.drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		shutdown()
	}
}
