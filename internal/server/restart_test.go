package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/journal"
)

// uploadGrid POSTs an n-by-n grid as an edge list under name. The
// restart test uses grids big enough that a layout job takes real time,
// so Close reliably interrupts work mid-flight.
func uploadGrid(t *testing.T, url, name string, n int) {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, gen.Grid2D(n, n)); err != nil {
		t.Fatal(err)
	}
	uploadGraph(t, url, name, buf.String())
}

// submitJob POSTs a layout job and returns the accepted job id.
func submitJob(t *testing.T, url, graphName string, subspace int) string {
	t.Helper()
	body := fmt.Sprintf(`{"graph":%q,"subspace":%d,"seed":1}`, graphName, subspace)
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// TestWorkerRestartRecoversJobs kills a worker with jobs queued and
// running, restarts it on the same DataDir, and asserts the interrupted
// work replays to completion: the uploaded graphs come back, the jobs
// re-run under fresh ids, and the journal leaves no intent pending. This is the
// single-process core of the sharded soak's zero-dropped-jobs guarantee.
func TestWorkerRestartRecoversJobs(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{WorkerID: "w1", DataDir: dir, Workers: 1, QueueDepth: 16}
	g := gen.PlateWithHoles(20, 20)
	s, err := NewWithConfig(g, core.Options{Subspace: 8, Seed: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	uploadGrid(t, ts.URL, "ga", 80)
	uploadGrid(t, ts.URL, "gb", 80)

	// Load the worker: with one pool worker, later jobs sit queued while
	// an earlier one runs. Big-enough subspaces keep the runner busy long
	// enough for Close to interrupt something mid-flight.
	ids := []string{
		submitJob(t, ts.URL, "ga", 256),
		submitJob(t, ts.URL, "gb", 256),
		submitJob(t, ts.URL, "ga", 192),
		submitJob(t, ts.URL, "gb", 192),
	}
	// Kill the worker. Close cancels the running job and drains the
	// queue as shutdown-cancelled — none of the four was resolved by a
	// user, so every unfinished one must leave its intent behind.
	ts.Close()
	s.Close()

	snap := readJournal(t, dir)
	pending, finished := snap.Pending, len(snap.Results)
	if finished+len(pending) != len(ids) {
		t.Fatalf("results(%d) + pending intents(%d) != submitted(%d)", finished, len(pending), len(ids))
	}
	if len(pending) == 0 {
		t.Fatal("shutdown interrupted nothing; test needs slower jobs")
	}

	// Restart on the same DataDir: catalog shard and interrupted jobs
	// must come back without any client involvement.
	s2, err := NewWithConfig(g, core.Options{Subspace: 8, Seed: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	for _, name := range []string{"ga", "gb"} {
		if _, ok := s2.Catalog().Get(name); !ok {
			t.Fatalf("graph %q not restored after restart", name)
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		left := readJournal(t, dir).Pending
		busy := false
		for _, st := range s2.Jobs().List() {
			if st.State == "queued" || st.State == "running" {
				busy = true
			}
			if st.State == "failed" || st.State == "cancelled" {
				t.Fatalf("recovered job %s ended %s: %s", st.ID, st.State, st.Error)
			}
		}
		if len(left) == 0 && !busy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovery never drained: %d intents left, busy=%v", len(left), busy)
		}
		time.Sleep(50 * time.Millisecond) // each poll reads the whole journal
	}
	// Every submission is now exactly one result frame: nothing was
	// dropped, nothing ran twice, no id was issued twice.
	snap = readJournal(t, dir)
	seen := map[string]bool{}
	for _, rec := range snap.Results {
		if seen[rec.Status.ID] {
			t.Fatalf("job id %s has two result frames", rec.Status.ID)
		}
		seen[rec.Status.ID] = true
	}
	if len(snap.Results) != len(ids) {
		t.Fatalf("result frames = %d, want %d (one per accepted job)", len(snap.Results), len(ids))
	}
	for _, in := range pending {
		if seen[in.ID] {
			t.Fatalf("interrupted job %s kept its id across the restart", in.ID)
		}
	}
	// The worker's DataDir holds the journal and nothing else.
	if entries, _ := os.ReadDir(dir); len(entries) != 1 || entries[0].Name() != jobs.JournalFile {
		t.Fatalf("DataDir holds %v, want exactly %s", entries, jobs.JournalFile)
	}
	// The restarted engine's ids continued past the first life's.
	if id := submitJob(t, ts2.URL, "ga", 8); id <= ids[len(ids)-1] {
		t.Fatalf("id sequence reset: new id %s after %s", id, ids[len(ids)-1])
	}
}

// parentSpec is the canonical intent spec a pre-PR-21 worker journaled:
// json.Marshal of a jobRequest that still had refineSweeps and coupled (no
// omitempty), so every job — plain ParHDE included — carries both keys.
func parentSpec(algorithm string, coupled bool, refineSweeps int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"graph":"default","algorithm":%q,"subspace":8,"dims":0,"seed":1,`+
		`"coupled":%t,"plainOrtho":false,"refineSweeps":%d,"skipQuality":false}`, algorithm, coupled, refineSweeps))
}

// TestRestartRetiresClosedRouteIntent: a journal written before POST /jobs
// stopped routing the baselines and the refinement post-pass holds specs in
// the old shape. The restarted worker comes up healthy, replays the ParHDE
// intents under fresh ids (zero-valued refineSweeps and all; the coupled key
// decodes and is ignored, true or false, since every job streams its BFS
// into DOrtho), and retires the ones that ask for a closed route with one
// log line each instead of running them or carrying them into every later
// restart. Such a data dir
// holds no graph frames — its uploads are snapshots under graphs/, which
// are ignored with one log line, neither loaded nor touched.
func TestRestartRetiresClosedRouteIntent(t *testing.T) {
	dir := t.TempDir()
	oldSnapshot := filepath.Join(dir, "graphs", `web.csr`) // what the deleted catalog snapshot writer used to leave
	if err := os.MkdirAll(filepath.Dir(oldSnapshot), 0o755); err != nil {
		t.Fatal(err)
	}
	var web bytes.Buffer
	if err := graph.WriteBinary(&web, gen.Grid2D(5, 5)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(oldSnapshot, web.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	jrn, err := journal.Open(filepath.Join(dir, jobs.JournalFile), nil, func(journal.Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	const last = "w1-j000005"
	stale := map[string]string{"w1-j000004": "multilevel", last: "refineSweeps 5"}
	for _, in := range []jobs.Intent{
		{ID: "w1-j000001", Spec: parentSpec("", false, 0)},
		{ID: "w1-j000002", Spec: parentSpec("parhde", false, 0)},
		{ID: "w1-j000003", Spec: parentSpec("parhde", true, 0)},
		{ID: "w1-j000004", Spec: parentSpec("multilevel", false, 0)},
		{ID: last, Spec: parentSpec("parhde", false, 5)},
	} {
		in.Version, in.Graph, in.Created = jobs.PersistVersion, DefaultGraph, time.Now()
		frame, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := jrn.Append('i', in.ID, func(b []byte) ([]byte, error) { return append(b, frame...), nil }); err != nil {
			t.Fatal(err)
		}
	}
	jrn.Close()
	if left := readJournal(t, dir).Pending; len(left) != 5 {
		t.Fatalf("hand-written journal holds %d pending intents, want 5", len(left))
	}

	var logged bytes.Buffer
	s, err := NewWithConfig(gen.PlateWithHoles(20, 20), core.Options{Subspace: 8, Seed: 1},
		Config{WorkerID: "w1", DataDir: dir, Workers: 1, AccessLog: log.New(&logged, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	if resp, _ := doReq(t, "GET", ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted worker /healthz: %d", resp.StatusCode)
	}
	if _, ok := s.Catalog().Get("web"); ok {
		t.Fatal("a graphs/ snapshot of an older version was loaded")
	}
	if _, err := os.Stat(oldSnapshot); err != nil {
		t.Fatalf("the ignored snapshot was touched: %v", err)
	}
	list := s.Jobs().List()
	if len(list) != 3 {
		t.Fatalf("replayed jobs = %+v, want the three ParHDE intents", list)
	}
	replayed := map[string]bool{}
	for _, st := range list {
		if st.ID <= last || st.Graph != DefaultGraph {
			t.Fatalf("replayed job %+v, want a fresh id on %s", st, DefaultGraph)
		}
		waitJobState(t, ts.URL, st.ID, "done")
		replayed[st.ID] = true
	}
	ts.Close()
	s.Close()

	snap := readJournal(t, dir)
	if len(snap.Pending) != 0 || len(snap.Results) != 3 {
		t.Fatalf("after recovery: %d intents left, results %+v; want 0 and the replayed jobs'", len(snap.Pending), snap.Results)
	}
	for _, rec := range snap.Results {
		if !replayed[rec.Status.ID] {
			t.Fatalf("result frame for %s, which was not replayed", rec.Status.ID)
		}
	}
	if n := strings.Count(logged.String(), "is ignored"); n != 1 || !strings.Contains(logged.String(), filepath.Dir(oldSnapshot)) {
		t.Fatalf("%d log lines say graphs/ is ignored, want one naming it:\n%s", n, logged.String())
	}
	for id, why := range stale {
		var naming []string
		for _, line := range strings.Split(logged.String(), "\n") { // every writer has stopped
			if strings.Contains(line, id) {
				naming = append(naming, line)
			}
		}
		if len(naming) != 1 || !strings.Contains(naming[0], "not replayed") || !strings.Contains(naming[0], why) {
			t.Fatalf("log lines naming %s = %q, want one saying it was not replayed because of %q", id, naming, why)
		}
	}
}

// readJournal reads a worker's job journal, every checksum verified.
func readJournal(t *testing.T, dir string) *jobs.Snapshot {
	t.Helper()
	snap, err := jobs.ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Errs) != 0 {
		t.Fatalf("journal errors: %v", snap.Errs)
	}
	return snap
}

// TestUnwritableDataDirCostsFramesNotJobs: when the journal cannot be
// written (here: DataDir sits under a regular file) an accepted job still
// runs, finishes and installs, and the loss shows on /metrics.
func TestUnwritableDataDirCostsFramesNotJobs(t *testing.T) {
	file := filepath.Join(t.TempDir(), "full")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewWithConfig(gen.PlateWithHoles(20, 20), core.Options{Subspace: 8, Seed: 1},
		Config{WorkerID: "w1", DataDir: filepath.Join(file, "w1"), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := submitJob(t, ts.URL, DefaultGraph, 8)
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, ok := s.Jobs().Get(id)
		if ok && j.State() == jobs.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
	metrics := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	// The install runs right after the result append, on the worker.
	for !strings.Contains(metrics(), `layouts_installed_total{mode="cold"} 1`) {
		if time.Now().After(deadline) {
			t.Fatalf("the job's layout was never installed:\n%s", metrics())
		}
		time.Sleep(5 * time.Millisecond)
	}
	m := metrics()
	for _, want := range []string{"jobs_journal_errors_total 2\n", "jobs_journal_bytes 0\n", "jobs_journal_append_seconds_count 2\n"} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestRenderETagRevalidation covers the router's replication contract:
// renders carry a generation-keyed ETag, an If-None-Match hit costs a
// 304 with no body, and a new layout install changes the tag.
func TestRenderETagRevalidation(t *testing.T) {
	_, ts := newTestServerPair(t, Config{})
	resp, err := http.Get(ts.URL + "/layout.png")
	if err != nil {
		t.Fatal(err)
	}
	etag := resp.Header.Get("ETag")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if etag == "" || !strings.Contains(etag, "g:default:") {
		t.Fatalf("ETag = %q", etag)
	}
	// The router sizes its tile buffer from this; without it a tile over
	// 2 KB goes out chunked.
	if resp.ContentLength != int64(len(body)) || len(body) == 0 {
		t.Fatalf("Content-Length %d for a %d-byte tile", resp.ContentLength, len(body))
	}

	req, _ := http.NewRequest("GET", ts.URL+"/layout.png", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", resp2.StatusCode)
	}
	if got := resp2.Header.Get("ETag"); got != etag {
		t.Fatalf("304 ETag %q != %q", got, etag)
	}

	// A stale tag (different generation) must get fresh bytes, not 304.
	req.Header.Set("If-None-Match", `"g:default:999:999:global.png"`)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("stale revalidation status %d, want 200", resp3.StatusCode)
	}
}

// TestPreRestartETagGetsFreshBytes: view and catalog generations start over
// at boot, so a worker restarted on another startup graph renders it under
// the very key the previous boot used. The boot id in the ETag keeps a tag
// of the previous boot from earning a 304 for the new graph's bytes.
func TestPreRestartETagGetsFreshBytes(t *testing.T) {
	opt := core.Options{Subspace: 4, Seed: 1}
	old, err := New(gen.Grid2D(6, 6), opt)
	if err != nil {
		t.Fatal(err)
	}
	oldTS := httptest.NewServer(old.Handler())
	tags := map[string]string{}
	for _, path := range []string{"/layout.png", "/stats"} {
		resp, _ := doReq(t, "GET", oldTS.URL+path)
		tags[path] = resp.Header.Get("ETag")
	}
	oldTS.Close()
	old.Close()

	restarted, err := New(gen.Grid2D(7, 7), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	ts := httptest.NewServer(restarted.Handler())
	defer ts.Close()
	for path, tag := range tags {
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		req.Header.Set("If-None-Match", tag)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 || resp.Header.Get("ETag") == tag {
			t.Errorf("%s with the pre-restart tag %s: status %d, %d bytes, tag %s; want 200 with the new graph's bytes",
				path, tag, resp.StatusCode, len(body), resp.Header.Get("ETag"))
		}
		if path == "/stats" && !strings.Contains(string(body), `"vertices":49`) {
			t.Errorf("/stats after the restart = %s, want the 7×7 grid", body)
		}
	}
}

// TestShardzReportsIdentity checks the router's health/identity probe.
func TestShardzReportsIdentity(t *testing.T) {
	_, ts := newTestServerPair(t, Config{WorkerID: "w7"})
	resp, err := http.Get(ts.URL + "/shardz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Hdeserve-Worker"); got != "w7" {
		t.Fatalf("worker header %q", got)
	}
	var body struct {
		Worker string   `json:"worker"`
		Graphs []string `json:"graphs"`
		Ready  bool     `json:"ready"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Worker != "w7" || !body.Ready || len(body.Graphs) != 1 || body.Graphs[0] != "default" {
		t.Fatalf("shardz = %+v", body)
	}
}
