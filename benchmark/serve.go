package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/shard"
)

// pngSize is the side of every tile the server renders.
const pngSize = 700

// pollEvery is the client's job-status polling interval.
const pollEvery = 2 * time.Millisecond

// awaitLimit bounds every wait for a job or an install.
const awaitLimit = 30 * time.Second

// fleetState is a serve workload after set-up: a router in front of two
// workers on loopback listeners, the input uploaded under two names owned
// by different workers, and a cold layout installed for each.
type fleetState struct {
	sp    *spec
	seed  uint64
	steps sessionSteps
	trace bool

	dir     string
	workers []*server.Server
	backs   []*httptest.Server
	router  *shard.Router
	front   *httptest.Server
	hc      *http.Client

	g     *graph.CSR
	names [2]string
	owner [2]string // base URL of the worker owning each name

	viewGen [2]int    // view generation last seen installed, per name
	pngETag [2]string // ETag of the last full render, per name
	visits  [2]int    // ops run against each name

	// serve_session: four absent edges to add and remove in turn, and two
	// low-degree zoom centres, all fixed by the graph.
	edges [4][2]int32
	zoomV [2]int32

	// Trace bookkeeping: series scraped when the window opens, and
	// server-side numbers of the traced ops, by metric name.
	before  map[string]float64
	samples map[string][]float64
}

// reply is the part of an HTTP response the ops look at.
type reply struct {
	status int
	etag   string
	body   []byte
}

// call issues one request and records it as a span.
func (st *fleetState) call(tr *tracer, span string, parent, op int, method, url, ifNoneMatch string, body []byte) (reply, error) {
	id := tr.begin(span, parent, op)
	defer tr.end(id)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := st.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: b}, nil
}

// expect turns an unexpected status into an op failure.
func expect(r reply, err error, what string, status int) error {
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if r.status != status {
		return fmt.Errorf("%s: status %d, want %d: %.200s", what, r.status, status, r.body)
	}
	return nil
}

// etagViewGen extracts the view generation from a worker ETag,
// "g:<name>:<viewGen>:<catalogGen>:<kind>". The catalog generation moves
// on every PATCH, before the refined layout exists, so "the ETag changed"
// does not mean "the new layout is installed": only the view generation
// does.
func etagViewGen(etag string) (int, error) {
	parts := strings.Split(strings.Trim(etag, `"`), ":")
	if len(parts) < 5 || parts[0] != "g" {
		return 0, fmt.Errorf("unrecognized ETag %q", etag)
	}
	gen, err := strconv.Atoi(parts[2])
	if err != nil {
		return 0, fmt.Errorf("unrecognized ETag %q: %w", etag, err)
	}
	return gen, nil
}

// setupFleet goes from the input file to a fleet with a cold layout
// installed under both names.
func setupFleet(sp *spec, input string, seed uint64, cfg runConfig, tr *tracer) (_ *fleetState, err error) {
	g, err := readInput(input, tr)
	if err != nil {
		return nil, err
	}
	st := &fleetState{
		sp: sp, seed: seed, steps: cfg.sizing.session, trace: cfg.trace, g: g,
		hc:      &http.Client{Timeout: awaitLimit},
		samples: map[string][]float64{},
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.dir, err = os.MkdirTemp(cfg.outDir, "fleet-"); err != nil {
		return nil, err
	}
	var urls []string
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("w%d", i+1)
		// A pool of two per worker makes the jobs package's default kernel
		// budget max(1, GOMAXPROCS/2) = 1, the same serial kernels the batch
		// workloads gate; the single closed-loop client keeps one busy.
		// MaxResults bounds the finished jobs (and their layouts) a worker
		// retains, so memory does not grow with the op count.
		srv, err := server.NewWithConfig(gen.Grid2D(8, 8), core.Options{Subspace: 4, Seed: 1, Workers: 1},
			server.Config{WorkerID: id, DataDir: filepath.Join(st.dir, id), Workers: 2, MaxResults: 16})
		if err != nil {
			return nil, err
		}
		st.workers = append(st.workers, srv)
		back := httptest.NewServer(srv.Handler())
		st.backs = append(st.backs, back)
		urls = append(urls, back.URL)
	}
	if st.router, err = shard.NewRouter(shard.Config{Peers: urls, Replication: 1}); err != nil {
		return nil, err
	}
	st.front = httptest.NewServer(st.router.Handler())

	// Listener ports differ run to run and the ring hashes peer URLs, so
	// scan for one name per worker instead of fixing two.
	ring := shard.NewRing(urls, 0)
	for c, found := 0, 0; found < 2; c++ {
		name := fmt.Sprintf("g%d", c)
		for w, u := range urls {
			if st.names[w] == "" && ring.Owner(name) == u {
				st.names[w], st.owner[w] = name, u
				found++
			}
		}
	}

	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		return nil, err
	}
	for _, name := range st.names {
		r, err := st.call(tr, "catalog.upload", -1, setupOp, http.MethodPost,
			st.front.URL+"/graphs?name="+name+"&format=bin", "", buf.Bytes())
		if err := expect(r, err, "upload "+name, http.StatusCreated); err != nil {
			return nil, err
		}
	}
	for w := range st.names {
		if _, err := st.coldJob(nil, -1, setupOp, w); err != nil {
			return nil, err
		}
	}
	if sp.kind == sessionKind {
		if err := st.pickSessionTargets(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (st *fleetState) close() {
	if st.front != nil {
		st.front.Close()
	}
	if st.router != nil {
		st.router.Close()
	}
	for _, b := range st.backs {
		b.Close()
	}
	for _, w := range st.workers {
		w.Close()
	}
	st.hc.CloseIdleConnections()
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// pickSessionTargets chooses the mutation edges and zoom centres from the
// graph alone: edge k joins the vertex at (k+1)/5 of the id range to its
// first two-hop neighbour not already adjacent; the zoom centres are the
// first vertices of degree ≤ 2 after one third and two thirds of the ids.
func (st *fleetState) pickSessionTargets() error {
	g := st.g
	for k := range st.edges {
		u := int32((k + 1) * g.NumV / 5)
		found := false
	scan:
		for _, w := range g.Neighbors(u) {
			for _, v := range g.Neighbors(w) {
				if v != u && !g.HasEdge(u, v) {
					st.edges[k], found = [2]int32{u, v}, true
					break scan
				}
			}
		}
		if !found {
			return fmt.Errorf("no absent two-hop edge at vertex %d", u)
		}
	}
	for k := range st.zoomV {
		v := int32((k + 1) * g.NumV / 3)
		for g.Degree(v) > 2 {
			v = (v + 1) % int32(g.NumV)
		}
		st.zoomV[k] = v
	}
	return nil
}

// awaitJob polls the job through the router until it is done.
func (st *fleetState) awaitJob(tr *tracer, parent, op int, id string) (jobs.Status, error) {
	var status jobs.Status
	for deadline := time.Now().Add(awaitLimit); ; {
		r, err := st.call(tr, "server.status_get", parent, op, http.MethodGet, st.front.URL+"/jobs/"+id, "", nil)
		if err := expect(r, err, "job status", http.StatusOK); err != nil {
			return status, err
		}
		if err := json.Unmarshal(r.body, &status); err != nil {
			return status, fmt.Errorf("job status: %w", err)
		}
		switch status.State {
		case "done":
			return status, nil
		case "failed", "cancelled":
			return status, fmt.Errorf("job %s ended %s: %s", id, status.State, status.Error)
		}
		if time.Now().After(deadline) {
			return status, fmt.Errorf("job %s still %s after %v", id, status.State, awaitLimit)
		}
		time.Sleep(pollEvery)
	}
}

// awaitInstall waits until the named graph serves a newer view than the
// last one seen. A job reads "done" before the server's OnDone hook has
// persisted its record and installed the layout, so a client that fetched
// the picture straight after "done" would time a stale cache hit. The
// probe is the small stats document, whose ETag carries the generation.
func (st *fleetState) awaitInstall(tr *tracer, parent, op, w int) error {
	id := tr.begin("jobs.install_wait", parent, op)
	defer tr.end(id)
	url := st.front.URL + "/graphs/" + st.names[w] + "/stats"
	for deadline := time.Now().Add(awaitLimit); ; {
		r, err := st.call(tr, "server.stats_get", id, op, http.MethodGet, url, "", nil)
		if err != nil {
			return fmt.Errorf("stats: %w", err)
		}
		// 409 is the graph's state before its first install: known, no view.
		if r.status != http.StatusConflict {
			if err := expect(r, nil, "stats", http.StatusOK); err != nil {
				return err
			}
			gen, err := etagViewGen(r.etag)
			if err != nil {
				return err
			}
			if gen > st.viewGen[w] {
				st.viewGen[w] = gen
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("view of %s not replaced after %v", st.names[w], awaitLimit)
		}
		time.Sleep(pollEvery / 2)
	}
}

// settle follows a 202's job to its installed view and, on traced ops,
// keeps the server-side timestamps of the job.
func (st *fleetState) settle(tr *tracer, parent, op, w int, id string) (jobs.Status, error) {
	status, err := st.awaitJob(tr, parent, op, id)
	if err != nil {
		return status, err
	}
	if err := st.awaitInstall(tr, parent, op, w); err != nil {
		return status, err
	}
	if tr != nil && status.Started != nil && status.Finished != nil {
		st.sample("jobs.queue_wait_ms", ms(status.Started.Sub(status.Created)))
		st.sample("jobs.run_ms", ms(status.Finished.Sub(*status.Started)))
		st.sample("jobs.done_to_install_ms", ms(time.Since(*status.Finished)))
		phase := map[string]float64{}
		for _, p := range status.Phases {
			phase[p.Name] = p.Seconds * 1e3
		}
		st.sample("core.job_phase_ms.bfs", phase["bfs_traversal"]+phase["bfs_other"])
		st.sample("core.job_phase_ms.dortho", phase["dortho"])
		st.sample("core.job_phase_ms.ls", phase["ls"])
		st.sample("core.job_phase_ms.gemm", phase["gemm"])
		st.sample("core.warm_refine_ms", phase["warm_refine"])
	}
	return status, nil
}

func (st *fleetState) sample(name string, v float64) {
	st.samples[name] = append(st.samples[name], v)
}

// coldJob submits a cold ParHDE layout of name w and waits for its view.
func (st *fleetState) coldJob(tr *tracer, parent, op, w int) (jobs.Status, error) {
	body, _ := json.Marshal(map[string]interface{}{
		"graph": st.names[w], "algorithm": "parhde", "subspace": 10, "seed": st.seed, "skipQuality": true,
	})
	r, err := st.call(tr, "server.submit", parent, op, http.MethodPost, st.front.URL+"/jobs", "", body)
	if err := expect(r, err, "submit", http.StatusAccepted); err != nil {
		return jobs.Status{}, err
	}
	var accepted jobs.Status
	if err := json.Unmarshal(r.body, &accepted); err != nil {
		return accepted, fmt.Errorf("submit reply: %w", err)
	}
	return st.settle(tr, parent, op, w, accepted.ID)
}

// fullRender fetches the freshly installed picture and checks it: 200, a
// new ETag of the view just installed, and a PNG of the expected size
// (decoded in full on each name's first op, header-only afterwards).
func (st *fleetState) fullRender(tr *tracer, parent, op, w int) (reply, error) {
	url := st.front.URL + "/graphs/" + st.names[w] + "/layout.png"
	r, err := st.call(tr, "render.png_miss", parent, op, http.MethodGet, url, "", nil)
	if err := expect(r, err, "layout.png", http.StatusOK); err != nil {
		return r, err
	}
	if r.etag == st.pngETag[w] {
		return r, fmt.Errorf("layout.png ETag %s unchanged after install", r.etag)
	}
	if gen, err := etagViewGen(r.etag); err != nil || gen != st.viewGen[w] {
		return r, fmt.Errorf("layout.png ETag %s is not view generation %d", r.etag, st.viewGen[w])
	}
	full := st.pngETag[w] == ""
	st.pngETag[w] = r.etag
	return r, checkPNG(r.body, full)
}

func checkPNG(body []byte, full bool) error {
	if full {
		img, err := png.Decode(bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("decoding PNG: %w", err)
		}
		if b := img.Bounds(); b.Dx() != pngSize || b.Dy() != pngSize {
			return fmt.Errorf("PNG is %dx%d, want %d", b.Dx(), b.Dy(), pngSize)
		}
		return nil
	}
	c, err := png.DecodeConfig(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("decoding PNG header: %w", err)
	}
	if c.Width != pngSize || c.Height != pngSize {
		return fmt.Errorf("PNG is %dx%d, want %d", c.Width, c.Height, pngSize)
	}
	return nil
}

// ops returns the workload's op and, on a trace run, its traced twin.
func (st *fleetState) ops(tr *tracer) []opFunc {
	if tr == nil {
		return []opFunc{st.op(nil)}
	}
	return []opFunc{st.op(nil), st.op(tr)}
}

// op returns the workload's op, traced when tr is non-nil.
func (st *fleetState) op(tr *tracer) opFunc {
	op := st.jobsOp
	if st.sp.kind == sessionKind {
		op = st.sessionOp
	}
	return func(i int) (time.Duration, error) {
		if i == 0 && st.trace && st.before == nil {
			var err error
			if st.before, err = st.scrape(); err != nil {
				return 0, err
			}
		}
		// Op i goes to name i mod 2 on every arm (warm-up ops count down
		// from -1); the visit count, and with it the add/remove turn, is
		// per name across arms.
		w := i & 1
		visit := st.visits[w]
		st.visits[w]++
		return op(tr, i, w, visit)
	}
}

// jobsOp is one serve_jobs op: cold job in, full picture out.
func (st *fleetState) jobsOp(tr *tracer, i, w, _ int) (time.Duration, error) {
	root := tr.begin("op", -1, i)
	defer tr.end(root)
	t0 := time.Now()
	if _, err := st.coldJob(tr, root, i, w); err != nil {
		return time.Since(t0), err
	}
	r, err := st.fullRender(tr, root, i, w)
	d := time.Since(t0)
	if tr != nil {
		st.sample("render.png_bytes", float64(len(r.body)))
	}
	return d, err
}

// sessionOp is one serve_session op: a mutation, its refined picture, and
// the reads an open viewer makes against it.
func (st *fleetState) sessionOp(tr *tracer, i, w, visit int) (time.Duration, error) {
	root := tr.begin("op", -1, i)
	defer tr.end(root)
	base := st.front.URL + "/graphs/" + st.names[w]
	// Even visits add the four edges, odd visits remove them again: the
	// graph is stationary, so every op does the same work.
	kind := "addEdge"
	if visit%2 == 1 {
		kind = "delEdge"
	}
	var muts []map[string]interface{}
	for _, e := range st.edges {
		muts = append(muts, map[string]interface{}{"op": kind, "u": e[0], "v": e[1]})
	}
	body, _ := json.Marshal(map[string]interface{}{"mutations": muts})

	t0 := time.Now()
	fail := func(err error) (time.Duration, error) { return time.Since(t0), err }
	r, err := st.call(tr, "dyngraph.patch", root, i, http.MethodPatch, base, "", body)
	if err := expect(r, err, "PATCH", http.StatusAccepted); err != nil {
		return fail(err)
	}
	var patched struct {
		Applied int         `json:"applied"`
		Job     jobs.Status `json:"job"`
	}
	if err := json.Unmarshal(r.body, &patched); err != nil {
		return fail(fmt.Errorf("PATCH reply: %w", err))
	}
	if patched.Applied != len(st.edges) {
		return fail(fmt.Errorf("PATCH applied %d of %d mutations", patched.Applied, len(st.edges)))
	}
	status, err := st.settle(tr, root, i, w, patched.Job.ID)
	if err != nil {
		return fail(err)
	}
	warm := false
	for _, p := range status.Phases {
		warm = warm || (p.Name == "warm_refine" && p.Seconds > 0)
	}
	if !warm {
		return fail(fmt.Errorf("refinement job %s ran cold", status.ID))
	}
	first, err := st.fullRender(tr, root, i, w)
	if err != nil {
		return fail(err)
	}
	for k := 0; k < st.steps.notModified; k++ {
		r, err := st.call(tr, "server.not_modified", root, i, http.MethodGet, base+"/layout.png", first.etag, nil)
		if err := expect(r, err, "conditional layout.png", http.StatusNotModified); err != nil {
			return fail(err)
		}
	}
	for k := 0; k < st.steps.hits; k++ {
		r, err := st.call(tr, "server.cache_hit", root, i, http.MethodGet, base+"/layout.png", "", nil)
		if err := expect(r, err, "cached layout.png", http.StatusOK); err != nil {
			return fail(err)
		}
		if r.etag != first.etag || len(r.body) != len(first.body) {
			return fail(fmt.Errorf("cached layout.png differs from the render it should repeat"))
		}
	}
	for k := 0; k < st.steps.zooms; k++ {
		url := fmt.Sprintf("%s/zoom.png?v=%d&hops=2", base, st.zoomV[k%len(st.zoomV)])
		r, err := st.call(tr, "render.zoom_miss", root, i, http.MethodGet, url, "", nil)
		if err := expect(r, err, "zoom.png", http.StatusOK); err != nil {
			return fail(err)
		}
		if err := checkPNG(r.body, false); err != nil {
			return fail(err)
		}
	}
	d := time.Since(t0)
	if tr != nil {
		st.sample("render.png_bytes", float64(len(first.body)))
		// Outside the op: the same revalidation straight at the owning
		// worker, the baseline the router's 304 is compared with.
		for k := 0; k < 10; k++ {
			r, err := st.call(tr, "shard.direct_304", root, i, http.MethodGet,
				st.owner[w]+"/graphs/"+st.names[w]+"/layout.png", first.etag, nil)
			if err := expect(r, err, "direct conditional layout.png", http.StatusNotModified); err != nil {
				return d, err
			}
		}
	}
	return d, nil
}

// scrape reads /metrics of the router and both workers into one map,
// summing series the workers share.
func (st *fleetState) scrape() (map[string]float64, error) {
	out := map[string]float64{}
	urls := []string{st.front.URL}
	for _, b := range st.backs {
		urls = append(urls, b.URL)
	}
	for _, u := range urls {
		r, err := st.call(nil, "", -1, 0, http.MethodGet, u+"/metrics", "", nil)
		if err := expect(r, err, "scrape", http.StatusOK); err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(r.body))
		for sc.Scan() {
			line := sc.Text()
			i := strings.LastIndexByte(line, ' ')
			if i < 0 || strings.HasPrefix(line, "#") {
				continue
			}
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] += v
			}
		}
	}
	return out, nil
}

// layerMetrics turns the traced ops' spans, the jobs' own timestamps and
// the /metrics deltas over the window into the serve per-layer metrics.
// Counts are per op over the windowOps ops since the opening scrape.
func (st *fleetState) layerMetrics(tr *tracer, out metrics, windowOps int) {
	set := out.set
	set("catalog.upload_ms", median(tr.eachMs("catalog.upload")), "ms")
	for _, m := range []struct{ metric, span string }{
		{"server.submit_ms", "server.submit"},
		{"server.status_get_ms", "server.status_get"},
		{"render.png_miss_ms", "render.png_miss"},
		{"render.zoom_miss_ms", "render.zoom_miss"},
		{"server.cache_hit_ms", "server.cache_hit"},
		{"server.not_modified_ms", "server.not_modified"},
		{"dyngraph.patch_ms", "dyngraph.patch"},
	} {
		set(m.metric, median(tr.eachMs(m.span)), "ms")
	}
	set("server.poll_count", tr.countPerOp("server.status_get"), "count")
	if direct := tr.eachMs("shard.direct_304"); len(direct) > 0 {
		set("shard.proxy_overhead_ms", median(tr.eachMs("server.not_modified"))-median(direct), "ms")
	}
	for name, vs := range st.samples {
		unit := "ms"
		if name == "render.png_bytes" {
			unit = "bytes"
		}
		set(name, median(vs), unit)
	}

	after, err := st.scrape()
	if err != nil || st.before == nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: no /metrics deltas: %v\n", st.sp.name, err)
		return
	}
	perOp := func(series string) float64 {
		if _, ok := after[series]; !ok {
			fmt.Fprintf(os.Stderr, "benchmark: %s: /metrics has no series %s\n", st.sp.name, series)
		}
		return (after[series] - st.before[series]) / float64(windowOps)
	}
	set("shard.tile_hits", perOp("router_cache_hits_total"), "count")
	set("shard.tile_misses", perOp("router_cache_misses_total"), "count")
	set("server.cache_hits", perOp("render_cache_hits_total"), "count")
	set("server.cache_misses", perOp("render_cache_misses_total"), "count")
	set("core.refine_sweeps", perOp("refine_sweeps_total"), "count")
}
