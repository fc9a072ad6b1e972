package repro_bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/shard"
)

// soakWorker is one in-process shard: a real server.Server behind a real
// TCP listener whose address survives a kill/restart cycle, which is the
// part httptest.Server cannot do.
type soakWorker struct {
	id   string
	dir  string
	addr string
	srv  *server.Server
	hs   *http.Server
}

func (w *soakWorker) url() string { return "http://" + w.addr }

// start (re)creates the server on the worker's DataDir and serves it on
// w.addr (chosen by the kernel on first start, reused on restart).
func (w *soakWorker) start(t *testing.T) {
	t.Helper()
	cfg := server.Config{WorkerID: w.id, DataDir: w.dir, Workers: 1, QueueDepth: 32}
	s, err := server.NewWithConfig(gen.PlateWithHoles(20, 20), core.Options{Subspace: 8, Seed: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	laddr := w.addr
	if laddr == "" {
		laddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", laddr)
	if err != nil {
		t.Fatal(err)
	}
	w.addr = ln.Addr().String()
	w.srv = s
	w.hs = &http.Server{Handler: s.Handler()}
	go w.hs.Serve(ln)
}

// kill closes the listener and the server without draining, the
// in-process stand-in for SIGKILL + journal recovery: running and queued
// jobs become shutdown-cancelled and leave their intents pending in the journal.
func (w *soakWorker) kill() {
	w.hs.Close()
	w.srv.Close()
}

// soakJournal reads a worker's job journal (possibly mid-append: a torn
// tail is not an error), every checksum verified.
func soakJournal(t *testing.T, dir string) *jobs.Snapshot {
	t.Helper()
	snap, err := jobs.ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Errs) != 0 {
		t.Fatalf("journal %s: %v", dir, snap.Errs)
	}
	return snap
}

func soakPost(t *testing.T, url, ctype, body string) (int, []byte) {
	t.Helper()
	return soakDo(t, http.MethodPost, url, ctype, body)
}

func soakDo(t *testing.T, method, url, ctype, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ctype)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// TestSoakShardedFleetRestart drives a router + 3-worker fleet with
// mixed traffic (uploads, a PATCH, jobs, cached reads), SIGKILLs one worker
// with jobs queued and running, restarts it on the same address and
// DataDir, and asserts the fleet-wide zero-dropped-jobs invariant: every
// accepted submission ends as exactly one result frame in some worker's
// journal (every checksum verified), no intent left pending, no job id
// issued twice, the victim's graph comes back as PATCHed, and every graph
// is fully servable through the router afterwards.
func TestSoakShardedFleetRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}

	workers := make([]*soakWorker, 3)
	urls := make([]string, 3)
	for i := range workers {
		workers[i] = &soakWorker{id: fmt.Sprintf("w%d", i+1), dir: t.TempDir()}
		workers[i].start(t)
		urls[i] = workers[i].url()
	}
	defer func() {
		for _, w := range workers {
			w.kill()
		}
	}()

	rt, err := shard.NewRouter(shard.Config{
		Peers:          urls,
		Replication:    1, // exactly one copy per graph → crisp record accounting
		HealthInterval: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Pick the victim and a graph it owns (the ring hashes names, so scan
	// for one), plus a slow grid for it: with one pool worker per shard,
	// big-subspace jobs on a 80×80 grid keep the victim busy long enough
	// for kill() to interrupt work mid-flight.
	ring := shard.NewRing(urls, 0)
	victim := workers[1]
	victimGraph := ""
	for i := 0; victimGraph == ""; i++ {
		if name := fmt.Sprintf("s%d", i); ring.Owner(name) == victim.url() {
			victimGraph = name
		}
	}
	quickNames := []string{"q0", "q1", "q2", "q3"}

	upload := func(name string, n int) {
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, gen.Grid2D(n, n)); err != nil {
			t.Fatal(err)
		}
		code, body := soakPost(t, ts.URL+"/graphs?name="+name, "text/plain", buf.String())
		if code != http.StatusCreated {
			t.Fatalf("upload %s: status %d: %s", name, code, body)
		}
	}
	upload(victimGraph, 100)
	for _, name := range quickNames {
		upload(name, 25)
	}

	accepted := 0
	// PATCH the victim's graph through the router and let the refinement it
	// queues finish (it carries no intent, so only a finished one is a
	// result frame): the two edges must still be there after the kill.
	code, resp := soakDo(t, http.MethodPatch, ts.URL+"/graphs/"+victimGraph, "application/json",
		`{"mutations":[{"op":"addEdge","u":0,"v":9999},{"op":"addEdge","u":1,"v":9998}]}`)
	if code != http.StatusAccepted {
		t.Fatalf("PATCH %s: status %d: %s", victimGraph, code, resp)
	}
	var patched struct {
		Job jobs.Status `json:"job"`
	}
	if err := json.Unmarshal(resp, &patched); err != nil {
		t.Fatal(err)
	}
	accepted++
	for deadline := time.Now().Add(30 * time.Second); patched.Job.State != "done"; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("refinement %s never finished: %+v", patched.Job.ID, patched.Job)
		}
		code, resp := soakDo(t, http.MethodGet, ts.URL+"/jobs/"+patched.Job.ID, "", "")
		if code != http.StatusOK || json.Unmarshal(resp, &patched.Job) != nil {
			t.Fatalf("GET job %s: status %d: %s", patched.Job.ID, code, resp)
		}
	}
	patchedEdges := gen.Grid2D(100, 100).NumEdges() + 2

	submit := func(name string, subspace int) {
		body := fmt.Sprintf(`{"graph":%q,"subspace":%d,"seed":1}`, name, subspace)
		code, resp := soakPost(t, ts.URL+"/jobs", "application/json", body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: status %d: %s", name, code, resp)
		}
		accepted++
	}

	// Spread quick jobs across the fleet first, with read traffic
	// interleaved while they churn: catalog listings and cached stats
	// reads through the router must never error.
	for round := 0; round < 2; round++ {
		for _, name := range quickNames {
			submit(name, 16)
		}
	}
	for i := 0; i < 5; i++ {
		resp, err := http.Get(ts.URL + "/graphs")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("catalog read: status %d", resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Now pin the victim's single pool worker down with big-subspace
	// jobs and kill it mid-run: the first job is running and the rest
	// queued, so intents must survive for all of them.
	for i := 0; i < 4; i++ {
		submit(victimGraph, 256-16*i)
	}
	time.Sleep(50 * time.Millisecond)
	victim.kill()
	pending := soakJournal(t, victim.dir).Pending
	if len(pending) == 0 {
		t.Fatal("kill interrupted nothing; test needs slower victim jobs")
	}
	survivorGraph := ""
	for _, name := range quickNames {
		if ring.Owner(name) != victim.url() {
			survivorGraph = name
			break
		}
	}
	if survivorGraph != "" {
		resp, err := http.Get(ts.URL + "/graphs/" + survivorGraph + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
			t.Fatalf("read with one worker down: status %d", resp.StatusCode)
		}
	}

	// Restart on the same address and DataDir: the shard recovers its
	// catalog — the victim's graph with its PATCH — and replays every
	// interrupted job under fresh ids.
	victim.start(t)
	code, resp = soakDo(t, http.MethodGet, victim.url()+"/graphs", "", "")
	var listing struct {
		Graphs []struct {
			Name    string `json:"name"`
			Edges   int64  `json:"edges"`
			Dynamic bool   `json:"dynamic"`
		} `json:"graphs"`
	}
	if code != http.StatusOK || json.Unmarshal(resp, &listing) != nil {
		t.Fatalf("GET /graphs on the restarted victim: status %d: %s", code, resp)
	}
	recovered := false
	for _, g := range listing.Graphs {
		if g.Name == victimGraph {
			recovered = g.Dynamic && g.Edges == patchedEdges
		}
	}
	if !recovered {
		t.Fatalf("the restarted victim lists %+v; want %s dynamic with %d edges", listing.Graphs, victimGraph, patchedEdges)
	}

	// Drain: every worker idle, no intent anywhere, no job failed.
	deadline := time.Now().Add(120 * time.Second)
	for {
		busy := false
		for _, w := range workers {
			resp, err := http.Get(w.url() + "/jobs")
			if err != nil {
				t.Fatal(err)
			}
			var list struct{ Jobs []jobs.Status }
			if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			for _, st := range list.Jobs {
				if st.State == "queued" || st.State == "running" {
					busy = true
				}
				if st.State == "failed" || st.State == "cancelled" {
					t.Fatalf("job %s ended %s: %s", st.ID, st.State, st.Error)
				}
			}
			if len(soakJournal(t, w.dir).Pending) != 0 {
				busy = true
			}
		}
		if !busy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet never drained after restart")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Zero dropped, zero duplicated: result frames across the fleet's
	// journals match the accepted submissions exactly, each under an id of
	// its own — the replayed jobs ran under fresh ids, never the ones they
	// were interrupted under — and a DataDir holds nothing but the journal.
	records := 0
	ids := map[string]bool{}
	for _, w := range workers {
		for _, rec := range soakJournal(t, w.dir).Results {
			if ids[rec.Status.ID] {
				t.Fatalf("job id %s has two result frames", rec.Status.ID)
			}
			ids[rec.Status.ID] = true
			records++
		}
		if entries, _ := os.ReadDir(w.dir); len(entries) != 1 || entries[0].Name() != jobs.JournalFile {
			t.Fatalf("%s holds %v, want exactly %s", w.dir, entries, jobs.JournalFile)
		}
	}
	if records != accepted {
		t.Fatalf("result frames = %d, want %d (one per accepted job)", records, accepted)
	}
	for _, in := range pending {
		if ids[in.ID] {
			t.Fatalf("interrupted job %s kept its id across the restart", in.ID)
		}
	}

	// The router must re-admit the restarted worker and serve every
	// graph's stats (each had at least one completed layout job).
	healthDeadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/shardz")
		if err != nil {
			t.Fatal(err)
		}
		var view struct {
			Peers []struct {
				Healthy bool `json:"healthy"`
			} `json:"peers"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		healthy := 0
		for _, p := range view.Peers {
			if p.Healthy {
				healthy++
			}
		}
		if healthy == len(workers) {
			break
		}
		if time.Now().After(healthDeadline) {
			t.Fatalf("router re-admitted only %d/%d workers", healthy, len(workers))
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, name := range append([]string{victimGraph}, quickNames...) {
		resp, err := http.Get(ts.URL + "/graphs/" + name + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusConflict {
			// A layout installed on the victim before the kill died with
			// the process (completed jobs don't replay — only unresolved
			// intents do). The graph itself recovered; a fresh job must
			// bring the view back.
			submit(name, 16)
			waitDeadline := time.Now().Add(30 * time.Second)
			for resp.StatusCode == http.StatusConflict {
				if time.Now().After(waitDeadline) {
					t.Fatalf("stats %s never recovered after fresh job", name)
				}
				time.Sleep(50 * time.Millisecond)
				if resp, err = http.Get(ts.URL + "/graphs/" + name + "/stats"); err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			}
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stats %s after recovery: status %d", name, resp.StatusCode)
		}
	}
}
