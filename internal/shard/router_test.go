package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/httpcache"
	"repro/internal/server"
)

// newWorker boots a real hdeserve worker with the given id and returns
// its server and test listener.
func newWorker(t *testing.T, id string) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.NewWithConfig(gen.Grid2D(12, 12),
		core.Options{Subspace: 8, Seed: 1},
		server.Config{WorkerID: id, Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// newRouter builds a router over the peers with health probing done
// once (the synchronous startup round) and a long re-probe interval so
// tests control timing.
func newRouter(t *testing.T, replication int, peers ...string) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := NewRouter(Config{
		Peers:          peers,
		Replication:    replication,
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { ts.Close(); rt.Close() })
	return rt, ts
}

// metricValue scrapes url+/metrics and returns the value of the first
// series whose name starts with prefix (0 when absent).
func metricValue(t *testing.T, url, prefix string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, prefix) {
			var v float64
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				fmt.Sscanf(line[i+1:], "%g", &v)
				return v
			}
		}
	}
	return 0
}

// uploadVia POSTs a small grid through the router under name.
func uploadVia(t *testing.T, routerURL, name string) {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, gen.Grid2D(8, 8)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(routerURL+"/graphs?name="+name+"&format=edges", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload %s: status %d", name, resp.StatusCode)
	}
}

// TestRouterShardsGraphsAcrossWorkers is the tentpole's core contract:
// uploads land on the ring owner, jobs run there (visible in the id
// prefix), reads route back, and the merged catalog spans the fleet.
func TestRouterShardsGraphsAcrossWorkers(t *testing.T) {
	s1, w1 := newWorker(t, "w1")
	s2, w2 := newWorker(t, "w2")
	rt, rts := newRouter(t, 1, w1.URL, w2.URL)

	if got := rt.Workers(); got[w1.URL] != "w1" || got[w2.URL] != "w2" {
		t.Fatalf("probe did not learn worker ids: %v", got)
	}

	// Pick six names the ring splits across both workers (ports are
	// random, so fixed names could all land on one side).
	ring := NewRing([]string{w1.URL, w2.URL}, 0)
	var names []string
	next := 0
	for _, owner := range []string{w1.URL, w1.URL, w1.URL, w2.URL, w2.URL, w2.URL} {
		for ; ; next++ {
			n := fmt.Sprintf("g%d", next)
			if ring.Owner(n) == owner {
				names = append(names, n)
				next++
				break
			}
		}
	}
	for _, n := range names {
		uploadVia(t, rts.URL, n)
	}
	// Placement matches the ring: with replication 1 each graph lives on
	// exactly its owner.
	workerOf := map[string]*server.Server{w1.URL: s1, w2.URL: s2}
	placed := map[string]int{}
	for _, n := range names {
		owner := ring.Owner(n)
		placed[owner]++
		if _, ok := workerOf[owner].Catalog().Get(n); !ok {
			t.Fatalf("graph %q missing on its owner %s", n, owner)
		}
		for u, s := range workerOf {
			if u == owner {
				continue
			}
			if _, ok := s.Catalog().Get(n); ok {
				t.Fatalf("graph %q leaked onto non-owner %s", n, u)
			}
		}
	}
	if placed[w1.URL] == 0 || placed[w2.URL] == 0 {
		t.Fatalf("six graphs all hashed to one worker: %v", placed)
	}

	// The merged catalog spans both workers; each worker's own pinned
	// "default" graph is listed once per worker.
	resp, err := http.Get(rts.URL + "/graphs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Graphs []struct {
			Name string `json:"name"`
		} `json:"graphs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Graphs) != len(names)+2 { // six uploads + two "default"
		t.Fatalf("merged catalog has %d entries, want %d", len(list.Graphs), len(names)+2)
	}

	// A job for g0 runs on g0's owner — the id carries its prefix — and
	// GET /jobs/{id} routes back there.
	body := fmt.Sprintf(`{"graph":%q,"subspace":8,"seed":1}`, names[0])
	resp, err = http.Post(rts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	wantPrefix := rt.Workers()[ring.Owner(names[0])] + "-"
	if !strings.HasPrefix(st.ID, wantPrefix) {
		t.Fatalf("job id %q does not carry owner prefix %q", st.ID, wantPrefix)
	}
	deadline := time.Now().Add(30 * time.Second)
	for st.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", st.ID, st.State)
		}
		time.Sleep(10 * time.Millisecond)
		r2, err := http.Get(rts.URL + "/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if r2.StatusCode != http.StatusOK {
			t.Fatalf("job get status %d", r2.StatusCode)
		}
		if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
	}

	// Reads route to the owner; the second hit revalidates the cached
	// tile (one 304 round trip, zero body bytes moved).
	for i := 0; i < 2; i++ {
		r3, err := http.Get(rts.URL + "/graphs/" + names[0] + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		if r3.StatusCode != http.StatusOK {
			t.Fatalf("stats status %d (read %d)", r3.StatusCode, i)
		}
		r3.Body.Close()
	}
	if hits := metricValue(t, rts.URL, "router_cache_hits_total"); hits < 1 {
		t.Fatalf("router_cache_hits_total = %g after repeat read", hits)
	}
	// The router caches the owner's tile byte for byte, and a real worker
	// declares its tile's length, so the cached copy is exactly as large
	// as the byte budget says.
	tilePath := "/graphs/" + names[0] + "/layout.png"
	r3, err := http.Get(rts.URL + tilePath)
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	direct, err := http.Get(ring.Owner(names[0]) + tilePath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(direct.Body)
	direct.Body.Close()
	if err != nil || direct.StatusCode != http.StatusOK {
		t.Fatalf("owner's layout.png: status %d, %v", direct.StatusCode, err)
	}
	if tl, ok := rt.cache.Peek(tilePath); !ok {
		t.Fatal("layout.png was not cached")
	} else if !bytes.Equal(tl.body, want) || cap(tl.body) != len(tl.body) {
		t.Fatalf("cached layout.png has len %d cap %d, the owner serves %d bytes", len(tl.body), cap(tl.body), len(want))
	}

	// Unknown graphs pass the worker's 404 through.
	r4, err := http.Get(rts.URL + "/graphs/nope/stats")
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph status %d, want 404", r4.StatusCode)
	}

	// DELETE reaches the owner and empties its catalog slot.
	req, _ := http.NewRequest(http.MethodDelete, rts.URL+"/graphs/"+names[0], nil)
	r5, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r5.Body.Close()
	if r5.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", r5.StatusCode)
	}
	if _, ok := workerOf[ring.Owner(names[0])].Catalog().Get(names[0]); ok {
		t.Fatalf("%s still on its owner after DELETE via router", names[0])
	}
}

// fakeWorker is a scriptable worker: always ready on /shardz, with a
// caller-supplied handler for everything else — except the invalidation
// feed, which it lacks, as a worker built before the feed does. Every
// test on one therefore pins the router's feed-less behaviour: each
// cached read revalidated at the worker.
func fakeWorker(t *testing.T, id string, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc(httpcache.FeedPath, http.NotFound)
	mux.HandleFunc("GET /shardz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"worker":%q,"ready":true}`, id)
	})
	if h != nil {
		mux.HandleFunc("/", h)
	}
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// nameOwnedBy finds a graph name whose ring owner is the given peer.
func nameOwnedBy(t *testing.T, ring *Ring, owner string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("k%d", i)
		if ring.Owner(name) == owner {
			return name
		}
	}
	t.Fatal("no key hashed to owner")
	return ""
}

// TestRouterBackpressurePassThrough: a worker's 429 is the admission
// controller speaking; the router must relay it verbatim and never
// retry it on a sibling.
func TestRouterBackpressurePassThrough(t *testing.T) {
	var submitsA, submitsB int
	wa := fakeWorker(t, "wa", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/jobs" {
			submitsA++
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"job queue full"}`)
		}
	})
	wb := fakeWorker(t, "wb", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/jobs" {
			submitsB++
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"wb-j000001","state":"queued"}`)
		}
	})
	_, rts := newRouter(t, 1, wa.URL, wb.URL)

	name := nameOwnedBy(t, NewRing([]string{wa.URL, wb.URL}, 0), wa.URL)
	body := fmt.Sprintf(`{"graph":%q,"subspace":8}`, name)
	resp, err := http.Post(rts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 passed through", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error != "job queue full" {
		t.Fatalf("429 body not relayed verbatim: %q %v", e.Error, err)
	}
	if submitsA != 1 || submitsB != 0 {
		t.Fatalf("submits A=%d B=%d; 429 must not be retried elsewhere", submitsA, submitsB)
	}
}

// TestRouterSSEPassThrough: the event stream proxies through with
// frames intact.
func TestRouterSSEPassThrough(t *testing.T) {
	wa := fakeWorker(t, "wa", func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/stream") {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: snapshot\ndata: {\"gen\":1}\n\n")
		fmt.Fprint(w, "event: delta\ndata: {\"gen\":2}\n\n")
	})
	_, rts := newRouter(t, 1, wa.URL)

	resp, err := http.Get(rts.URL + "/graphs/any/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var events []string
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			events = append(events, strings.TrimPrefix(sc.Text(), "event: "))
		}
	}
	if len(events) != 2 || events[0] != "snapshot" || events[1] != "delta" {
		t.Fatalf("events = %v", events)
	}
}

// TestRouterStreamSurvivesWriteTimeout: a stream proxied by a router whose
// WriteTimeout is 300 ms still delivers a delta a second after it opened —
// every chunk carries its own write deadline, and the worker's heartbeat
// keeps chunks coming — and it ends as soon as the router hangs up, as a
// drain does first.
func TestRouterStreamSurvivesWriteTimeout(t *testing.T) {
	_, w1 := newWorker(t, "w1")
	rt, err := NewRouter(Config{Peers: []string{w1.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewUnstartedServer(rt.Handler())
	rts.Config.WriteTimeout = 300 * time.Millisecond
	rts.Start()
	t.Cleanup(func() { rts.Close(); rt.Close() })

	resp, err := http.Get(rts.URL + "/graphs/default/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	nextEvent := func() string {
		t.Helper()
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("stream read: %v", err)
			}
			if event, ok := strings.CutPrefix(strings.TrimSpace(line), "event: "); ok {
				return event
			}
		}
	}
	if event := nextEvent(); event != "snapshot" {
		t.Fatalf("first event %q, want snapshot", event)
	}
	time.Sleep(time.Second)
	req, _ := http.NewRequest(http.MethodPatch, rts.URL+"/graphs/default",
		strings.NewReader(`{"mutations":[{"op":"addEdge","u":0,"v":47}]}`))
	patched, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	patched.Body.Close()
	if patched.StatusCode != http.StatusAccepted {
		t.Fatalf("PATCH: status %d", patched.StatusCode)
	}
	if event := nextEvent(); event != "delta" {
		t.Fatalf("after the write timeout: event %q, want delta", event)
	}

	rt.Hangup()
	ended := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, br)
		ended <- err
	}()
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("the proxied stream is still open 5 s after the router hung up")
	}
}

// TestRouterJobIDFanout: a job id carrying a known worker's prefix —
// dashes in the worker id included — costs exactly one forward to that
// worker; an id whose prefix names no known worker is hunted across the
// fleet and the first non-404 wins.
func TestRouterJobIDFanout(t *testing.T) {
	var hitsA, hitsB, hitsDashed atomic.Int64
	wa := fakeWorker(t, "wa", func(w http.ResponseWriter, r *http.Request) {
		hitsA.Add(1)
		http.NotFound(w, r)
	})
	wb := fakeWorker(t, "wb", func(w http.ResponseWriter, r *http.Request) {
		hitsB.Add(1)
		if r.URL.Path != "/jobs/old-j000007" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"old-j000007","state":"done"}`)
	})
	wd := fakeWorker(t, "us-east-1", func(w http.ResponseWriter, r *http.Request) {
		hitsDashed.Add(1)
		if r.URL.Path != "/jobs/us-east-1-j000003" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"id":"us-east-1-j000003","state":"done"}`)
	})
	_, rts := newRouter(t, 1, wa.URL, wb.URL, wd.URL)

	for _, tc := range []struct {
		id       string
		want     int
		forwards [3]int64 // to wa, wb, us-east-1; -1 = any (fan-out order is the ring's)
	}{
		{"us-east-1-j000003", http.StatusOK, [3]int64{0, 0, 1}},
		{"wa-j000001", http.StatusNotFound, [3]int64{1, 0, 0}},
		{"old-j000007", http.StatusOK, [3]int64{-1, 1, -1}},
		// A truly unknown id 404s with the router's own envelope.
		{"zz-j999999", http.StatusNotFound, [3]int64{1, 1, 1}},
	} {
		hitsA.Store(0)
		hitsB.Store(0)
		hitsDashed.Store(0)
		resp, err := http.Get(rts.URL + "/jobs/" + tc.id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			ID string `json:"id"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.id, resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusOK && (derr != nil || st.ID != tc.id) {
			t.Fatalf("%s: body %v %v", tc.id, st, derr)
		}
		got := [3]int64{hitsA.Load(), hitsB.Load(), hitsDashed.Load()}
		for i, want := range tc.forwards {
			if want >= 0 && got[i] != want {
				t.Fatalf("%s: forwards %v, want %v", tc.id, got, tc.forwards)
			}
		}
	}
}

// TestRouterHealthz: up while any worker lives, 503 once none do.
func TestRouterHealthz(t *testing.T) {
	wa := fakeWorker(t, "wa", nil)
	rt, rts := newRouter(t, 1, wa.URL)

	resp, err := http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d with live worker", resp.StatusCode)
	}

	wa.Close()
	rt.probeAll()
	resp2, err := http.Get(rts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz %d with fleet down, want 503", resp2.StatusCode)
	}
}

// TestRouterOwnerDown pins what replaces replica failover: with a
// graph's owner dead, a tile already in the router cache is still
// served (200, stale), a view the router never fetched is 502, and
// /healthz stays 200 because another worker is healthy.
func TestRouterOwnerDown(t *testing.T) {
	tileWorker := func(id string) *httptest.Server {
		return fakeWorker(t, id, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("ETag", `"g:x:1:1:stats"`)
			fmt.Fprint(w, `{"from":"`+id+`"}`)
		})
	}
	wa, wb := tileWorker("wa"), tileWorker("wb")
	rt, rts := newRouter(t, 1, wa.URL, wb.URL)
	name := nameOwnedBy(t, NewRing([]string{wa.URL, wb.URL}, 0), wa.URL)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(rts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	if code, _ := get("/graphs/" + name + "/stats"); code != http.StatusOK {
		t.Fatalf("warming read: status %d", code)
	}

	wa.Close()
	rt.probeAll()
	if code, body := get("/graphs/" + name + "/stats"); code != http.StatusOK || body != `{"from":"wa"}` {
		t.Fatalf("cached tile with owner down: %d %q, want the stale 200 from wa", code, body)
	}
	if code, _ := get("/graphs/" + name + "/layout.png"); code != http.StatusBadGateway {
		t.Fatalf("uncached view with owner down: status %d, want 502", code)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz %d with one of two workers healthy, want 200", code)
	}
}

// TestNewRouterRejectsReplication: the field survives for its callers,
// but no longer selects a mode.
func TestNewRouterRejectsReplication(t *testing.T) {
	wa := fakeWorker(t, "wa", nil)
	if rt, err := NewRouter(Config{Peers: []string{wa.URL}, Replication: 2}); err == nil {
		rt.Close()
		t.Fatal("NewRouter accepted Replication: 2")
	}
	for _, r := range []int{0, 1} {
		rt, err := NewRouter(Config{Peers: []string{wa.URL}, Replication: r, HealthInterval: time.Hour})
		if err != nil {
			t.Fatalf("Replication %d: %v", r, err)
		}
		rt.Close()
	}
}

// TestRouterServesEveryWorkerRoute walks the worker's route table
// against a worker that answers 200 to everything: a route the router
// mux does not serve shows up as the mux's own 404/405 — "clients cannot
// tell a router from a single-process hdeserve", as a check.
func TestRouterServesEveryWorkerRoute(t *testing.T) {
	wa := fakeWorker(t, "wa", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{}`)
	})
	_, rts := newRouter(t, 1, wa.URL)
	for _, pattern := range server.RoutePatterns() {
		method, path, ok := strings.Cut(pattern, " ")
		if !ok {
			method, path = http.MethodGet, pattern
		}
		path = strings.NewReplacer("{name}", "g", "{id}", "wa-j000001").Replace(path)
		// The query and body satisfy the two routes the router validates
		// itself (POST /graphs, POST /jobs); the rest ignore them.
		req, err := http.NewRequest(method, rts.URL+path+"?name=g", strings.NewReader(`{"graph":"g"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("worker route %q through the router: status %d, want the worker's 200", pattern, resp.StatusCode)
		}
	}
}

// TestRouterTileReadIsSized: a tile with a Content-Length is read into a
// slice of exactly that length — so what the cache holds is what
// (*tile).weight and router_cache_bytes count — while a chunked tile, and
// one whose declared length is above the limit for an up-front
// allocation, still arrive whole.
func TestRouterTileReadIsSized(t *testing.T) {
	const limit = 40_000
	tiles := map[string][]byte{
		"layout.png": bytes.Repeat([]byte("tile"), 5_500),  // 22 KB, declared
		"layout.svg": bytes.Repeat([]byte("<svg>"), 4_000), // 20 KB, chunked
		"stats":      bytes.Repeat([]byte("{}"), limit),    // declared, over the limit
	}
	w1 := fakeWorker(t, "w1", func(w http.ResponseWriter, r *http.Request) {
		view := r.URL.Path[strings.LastIndexByte(r.URL.Path, '/')+1:]
		w.Header().Set("ETag", `"g:x:1:1:`+view+`"`)
		if view == "layout.svg" {
			w.(http.Flusher).Flush() // headers leave without a length: chunked
		} else {
			w.Header().Set("Content-Length", strconv.Itoa(len(tiles[view])))
		}
		w.Write(tiles[view])
	})
	rt, err := NewRouter(Config{Peers: []string{w1.URL}, HealthInterval: time.Hour, MaxUploadBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { rts.Close(); rt.Close() })

	var held int64
	for view, want := range tiles {
		path := "/graphs/g/" + view
		resp, err := http.Get(rts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("%s: status %d, %d bytes; want the worker's %d", view, resp.StatusCode, len(got), len(want))
		}
		cached, ok := rt.cache.Peek(path)
		if !ok || !bytes.Equal(cached.body, want) {
			t.Fatalf("%s: tile not cached intact", view)
		}
		if view == "layout.png" && cap(cached.body) != len(cached.body) {
			t.Errorf("%s: cached body has len %d but cap %d: the byte budget undercounts it", view, len(cached.body), cap(cached.body))
		}
		held += cached.weight()
	}
	if got := metricValue(t, rts.URL, "router_cache_bytes"); int64(got) != held {
		t.Errorf("router_cache_bytes = %v, the cached tiles weigh %d", got, held)
	}
}
