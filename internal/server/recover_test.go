package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/journal"
)

// startWorker starts a worker on dir with a small startup graph; logged,
// when non-nil, receives its server-level log lines.
func startWorker(t *testing.T, dir string, startup *graph.CSR, logged *bytes.Buffer) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{WorkerID: "w1", DataDir: dir, Workers: 1}
	if logged != nil {
		cfg.AccessLog = log.New(logged, "", 0)
	}
	s, err := NewWithConfig(startup, core.Options{Subspace: 4, Seed: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s.Handler())
}

// graphInfos is GET /graphs, by name.
func graphInfos(t *testing.T, url string) map[string]catalog.Info {
	t.Helper()
	resp, b := doReq(t, "GET", url+"/graphs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /graphs: status %d: %s", resp.StatusCode, b)
	}
	var body struct {
		Graphs []catalog.Info `json:"graphs"`
	}
	if err := json.Unmarshal(b, &body); err != nil {
		t.Fatal(err)
	}
	out := map[string]catalog.Info{}
	for _, in := range body.Graphs {
		in.Added, in.Source = time.Time{}, "" // when and whence differ across a restart by design
		out[in.Name] = in
	}
	return out
}

// mustPatch PATCHes a graph and waits for the refinement it queued, so the
// job's result frame is in the journal when mustPatch returns.
func mustPatch(t *testing.T, url, name, body string) {
	t.Helper()
	code, b := patchGraph(t, url, name, body)
	if code != http.StatusAccepted {
		t.Fatalf("PATCH %s: status %d: %s", name, code, b)
	}
	var patched struct {
		Job jobs.Status `json:"job"`
	}
	if err := json.Unmarshal(b, &patched); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, url, patched.Job.ID, "done")
}

// TestPatchedGraphSurvivesRestart is the recovery contract of the graph
// frames: upload, PATCH (edges, then vertices) and DELETE each survive the
// worker, with the vertices, edges, dynamic flag and catalog generation
// GET /graphs reported before it went down; the job frames that share the
// file still read as one result per accepted job and nothing pending; and
// the data dir holds the journal and nothing else.
func TestPatchedGraphSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	startup := gen.Grid2D(6, 6)
	s, ts := startWorker(t, dir, startup, nil)
	uploadGraph(t, ts.URL, "proj7", gridGraph(5)) // a name that ends like a job id
	uploadGraph(t, ts.URL, "static", pathGraph(12))
	uploadGraph(t, ts.URL, "doomed", pathGraph(9))
	mustPatch(t, ts.URL, "proj7", `{"mutations":[{"op":"addEdge","u":0,"v":24},{"op":"delEdge","u":0,"v":1}]}`)
	mustPatch(t, ts.URL, "proj7", `{"mutations":[{"op":"addVertices","count":3},{"op":"addEdge","u":25,"v":0},{"op":"addEdge","u":26,"v":25},{"op":"addEdge","u":27,"v":26},{"op":"delVertex","u":12},{"op":"addEdge","u":12,"v":11}]}`)
	mustPatch(t, ts.URL, "proj7", `{"mutations":[{"op":"addEdge","u":0,"v":24}]}`) // applies nothing, still a frame
	mustPatch(t, ts.URL, DefaultGraph, `{"mutations":[{"op":"addEdge","u":0,"v":35}]}`)
	if resp, b := doReq(t, "DELETE", ts.URL+"/graphs/doomed"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE doomed: status %d: %s", resp.StatusCode, b)
	}
	// A rejected PATCH changes nothing, durable or not: not even the dynamic flag.
	if code, b := patchGraph(t, ts.URL, "static", `{"mutations":[{"op":"addEdge","u":0,"v":12}]}`); code != http.StatusBadRequest {
		t.Fatalf("out-of-range PATCH: status %d: %s", code, b)
	}
	id := submitJob(t, ts.URL, "static", 4)
	waitJobState(t, ts.URL, id, "done")
	before := graphInfos(t, ts.URL)
	// One generation per batch that changed the graph: two of the three.
	if in := before["proj7"]; !in.Dynamic || in.Vertices != 28 || in.Generation != 3 {
		t.Fatalf("proj7 before the restart = %+v; want dynamic, 28 vertices, generation 3", in)
	}
	if in := before["static"]; in.Dynamic || in.Generation != 1 {
		t.Fatalf("static after a rejected PATCH = %+v; want it untouched", in)
	}
	ts.Close()
	s.Close()

	snap := readJournal(t, dir)
	if len(snap.Results) != 5 || len(snap.Pending) != 0 || snap.Seq != 5 {
		t.Fatalf("journal with graph frames: %d results, %d pending, seq %d; want the 5 accepted jobs, resolved", len(snap.Results), len(snap.Pending), snap.Seq)
	}

	s2, ts2 := startWorker(t, dir, startup, nil)
	after := graphInfos(t, ts2.URL)
	if len(after) != len(before) {
		t.Fatalf("after the restart GET /graphs lists %d graphs, before %d", len(after), len(before))
	}
	for name, want := range before {
		if got := after[name]; got != want {
			t.Errorf("%s after the restart = %+v\n\tbefore it: %+v", name, got, want)
		}
	}
	if _, ok := after["doomed"]; ok {
		t.Error("a deleted graph came back")
	}
	g, _ := s2.Catalog().Get("proj7")
	if g.HasEdge(0, 1) || !g.HasEdge(0, 24) || !g.HasEdge(26, 27) || g.Degree(12) != 1 {
		t.Error("proj7 came back with the right counts and the wrong edges")
	}
	// A recovered graph takes the next PATCH like any other.
	mustPatch(t, ts2.URL, "proj7", `{"mutations":[{"op":"addEdge","u":27,"v":0}]}`)
	if resp, b := doReq(t, "DELETE", ts2.URL+"/graphs/proj7"); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE proj7: status %d: %s", resp.StatusCode, b)
	}
	ts2.Close()
	s2.Close()

	s3, ts3 := startWorker(t, dir, startup, nil)
	defer s3.Close()
	defer ts3.Close()
	if got := graphInfos(t, ts3.URL); len(got) != 2 || got["static"] != before["static"] || got[DefaultGraph] != before[DefaultGraph] {
		t.Fatalf("after DELETE and a second restart GET /graphs = %+v; want static and default as they were", got)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 || entries[0].Name() != jobs.JournalFile {
		t.Fatalf("DataDir holds %v, want exactly %s", entries, jobs.JournalFile)
	}
}

// TestTornMutationFrameYieldsGraphBeforeIt cuts the journal at every byte
// inside its last mutation frame — what a worker killed mid-append leaves.
// Whatever the offset, the worker starts, the graph is the one the PATCH
// before it left, and the next PATCH lands on a clean frame boundary.
func TestTornMutationFrameYieldsGraphBeforeIt(t *testing.T) {
	dir := t.TempDir()
	startup := gen.Grid2D(4, 4)
	s, ts := startWorker(t, dir, startup, nil)
	uploadGraph(t, ts.URL, "g", gridGraph(4))
	mustPatch(t, ts.URL, "g", `{"mutations":[{"op":"addEdge","u":0,"v":15}]}`)
	want := graphInfos(t, ts.URL)["g"]
	mustPatch(t, ts.URL, "g", `{"mutations":[{"op":"addVertices","count":2},{"op":"addEdge","u":16,"v":0},{"op":"addEdge","u":17,"v":16}]}`)
	ts.Close()
	s.Close()

	whole, err := os.ReadFile(filepath.Join(dir, jobs.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	var start, end, off int64
	journal.Scan(bytes.NewReader(whole), int64(len(whole)), nil, func(f journal.Frame) {
		if f.Kind == kindMutation {
			start = off
		}
		off += 8 + 2 + int64(len(f.Key)+len(f.Payload))
		if f.Kind == kindMutation {
			end = off
		}
	})
	if start == 0 || end-start < 64 {
		t.Fatalf("last mutation frame at [%d, %d) of %d bytes", start, end, len(whole))
	}
	for cut := start; cut < end; cut++ {
		torn := t.TempDir()
		if err := os.WriteFile(filepath.Join(torn, jobs.JournalFile), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, ts := startWorker(t, torn, startup, nil)
		if resp, _ := doReq(t, "GET", ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
			t.Fatalf("cut at %d: /healthz %d", cut, resp.StatusCode)
		}
		if got := graphInfos(t, ts.URL)["g"]; got != want {
			t.Fatalf("cut at %d (frame is [%d, %d)): g = %+v, want the graph before the torn PATCH %+v", cut, start, end, got, want)
		}
		if cut == start || cut == end-1 {
			mustPatch(t, ts.URL, "g", `{"mutations":[{"op":"delEdge","u":0,"v":15}]}`)
		}
		ts.Close()
		s.Close()
		if cut == start || cut == end-1 {
			if st, _ := os.Stat(filepath.Join(torn, jobs.JournalFile)); st.Size() <= start {
				t.Fatalf("cut at %d: the journal is %d bytes after another PATCH", cut, st.Size())
			}
			if snap := readJournal(t, torn); snap.Bytes <= start {
				t.Fatalf("cut at %d: frames appended after the torn tail do not scan (valid prefix %d)", cut, snap.Bytes)
			}
		}
	}
}

// TestMutationForAnotherGraphRefused: PATCHes to "default" are journaled
// like any other, and "default" is whatever -in names at the next start. A
// batch recorded against a graph of another size is refused with one log
// line, never applied to the newcomer; so is every batch after it.
func TestMutationForAnotherGraphRefused(t *testing.T) {
	dir := t.TempDir()
	s, ts := startWorker(t, dir, gen.Grid2D(6, 6), nil)
	mustPatch(t, ts.URL, DefaultGraph, `{"mutations":[{"op":"addEdge","u":0,"v":35}]}`)
	mustPatch(t, ts.URL, DefaultGraph, `{"mutations":[{"op":"addEdge","u":1,"v":34}]}`)
	ts.Close()
	s.Close()

	var logged bytes.Buffer
	other := gen.Grid2D(7, 7)
	s2, ts2 := startWorker(t, dir, other, &logged)
	got := graphInfos(t, ts2.URL)[DefaultGraph]
	ts2.Close()
	s2.Close() // the log has no writer left
	if got.Dynamic || got.Generation != 1 || got.Vertices != other.NumV || got.Edges != other.NumEdges() {
		t.Fatalf("default after a restart on another graph = %+v, want it untouched", got)
	}
	var refused []string
	for _, line := range strings.Split(logged.String(), "\n") {
		if strings.Contains(line, "not replayed") {
			refused = append(refused, line)
		}
	}
	if len(refused) != 2 || !strings.Contains(refused[0], `"default"`) || !strings.Contains(refused[0], "36 vertices and 60 edges") {
		t.Fatalf("log lines about refused frames = %q, want one per batch naming the graph and the counts it was applied to", refused)
	}
}

// TestCorruptGraphFrameSkipped: a graph frame that cannot be replayed — a
// payload that is not a graph, a key no upload could have had — costs that
// graph and one log line, and the rest of the shard comes back.
func TestCorruptGraphFrameSkipped(t *testing.T) {
	dir := t.TempDir()
	jrn, err := journal.Open(filepath.Join(dir, jobs.JournalFile), nil, func(journal.Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := graph.WriteBinary(&good, gen.Grid2D(5, 5)); err != nil {
		t.Fatal(err)
	}
	for _, f := range []journal.Frame{
		{Kind: kindGraphPut, Key: "good", Payload: good.Bytes()},
		{Kind: kindGraphPut, Key: "bad", Payload: []byte("not a csr")},
		{Kind: kindGraphPut, Key: "../evil", Payload: good.Bytes()},
		{Kind: kindMutation, Key: "good", Payload: []byte(`{"mutations":[{"op":"addEdge","u":0,"v":99}],"version":1,"vertices":25,"edges":40}`)},
		{Kind: kindMutation, Key: "good", Payload: []byte(`{"mutations":[{"op":"addEdge","u":0,"v":24}],"version":99,"vertices":25,"edges":40}`)},
		{Kind: 'q', Key: "good"},
		{Kind: kindGraphPut, Key: "also", Payload: good.Bytes()},
	} {
		if err := jrn.Append(f.Kind, f.Key, func(b []byte) ([]byte, error) { return append(b, f.Payload...), nil }); err != nil {
			t.Fatal(err)
		}
	}
	jrn.Close()

	var logged bytes.Buffer
	s, ts := startWorker(t, dir, gen.Grid2D(4, 4), &logged)
	got := graphInfos(t, ts.URL)
	ts.Close()
	s.Close() // the log has no writer left
	if len(got) != 3 || got["good"].Edges != 40 || got["good"].Dynamic || got["also"].Vertices != 25 {
		t.Fatalf("GET /graphs = %+v, want default, good (unpatched) and also", got)
	}
	for _, want := range []string{`"bad" not replayed`, `"../evil" not replayed`, "out of range", "newer than supported", "unknown frame kind"} {
		if n := strings.Count(logged.String(), want); n != 1 {
			t.Errorf("%d log lines say %q, want 1:\n%s", n, want, logged.String())
		}
	}
}

// FuzzMutationRequest: the PATCH decoder's output is journaled and decoded
// again at every restart, so whatever it accepts must come back from a
// mutation frame as the same batch, and neither path may panic on a body
// from outside — nor may the batch, applied to a graph.
func FuzzMutationRequest(f *testing.F) {
	for _, seed := range []string{
		`{"mutations":[{"op":"addEdge","u":0,"v":15},{"op":"delEdge","u":0,"v":1}]}`,
		`{"mutations":[{"op":"addVertices","count":2},{"op":"delVertex","u":3}]}`,
		`{"mutations":[{"op":"addVertices","count":9223372036854775807}]}`,
		`{"mutations":[{"op":"addEdge","u":-1,"v":2147483647,"count":-5}]}`,
		`{"mutations":[]}`, `{"mutations":null}`, `{"mutations":[{"op":"recolor"}]}`,
		`{"mutations":[{"op":"addEdge","u":0,"v":1}],"vertices":3}`, `[]`, `{`,
	} {
		f.Add([]byte(seed))
	}
	base := gen.Grid2D(4, 4)
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeMutationRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		batch, err := decodeMutations(req.Mutations)
		if err != nil {
			return
		}
		added := 0
		for _, m := range batch {
			if m.Count > 0 {
				added += m.Count
			}
		}
		if added > maxBatchVertices {
			t.Fatalf("accepted a batch that adds %d vertices", added)
		}
		payload, err := json.Marshal(mutationFrame{mutationRequest: req, Version: jobs.PersistVersion, Vertices: base.NumV, Edges: base.NumEdges()})
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		var back mutationFrame
		if err := json.Unmarshal(payload, &back); err != nil {
			t.Fatalf("frame %s does not decode: %v", payload, err)
		}
		again, err := decodeMutations(back.Mutations)
		if err != nil || fmt.Sprint(again) != fmt.Sprint(batch) || back.Vertices != base.NumV || back.Edges != base.NumEdges() {
			t.Fatalf("frame %s decodes to %v (err %v), the live request to %v", payload, again, err, batch)
		}
		cat := catalog.New(-1)
		if err := cat.Add("g", base, "fuzz"); err != nil {
			t.Fatal(err)
		}
		s := &Server{cat: cat}
		if next, _, err := s.mutateGraph("g", base, req.Mutations); err == nil && next.NumV != base.NumV+added {
			t.Fatalf("batch %v left %d vertices, want %d", batch, next.NumV, base.NumV+added)
		}
	})
}

// FuzzJobRequest: an accepted POST /jobs body is journaled as its
// re-marshaled request and replayed from that spec at every restart, so
// the spec must decode, the way resubmitIntent decodes it, and validate
// back to the same request — and neither path may panic on a body from
// outside.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{"graph":"default","subspace":20,"seed":1}`,
		`{"graph":"g","algorithm":"parhde","subspace":4096,"dims":16,"seed":18446744073709551615,"plainOrtho":true,"skipQuality":true}`,
		`{"graph":"g","subspace":-1}`, `{"graph":"g","dims":17}`, `{"graph":"","subspace":4}`, `{"graph":"g","seed":-1}`,
		`{"graph":"g","algorithm":"pivotmds"}`, `{"graph":"g","refineSweeps":3}`, `{"graph":"g","coupled":true}`, `{"GRAPH":"g","Subspace":1e1}`,
		`{"graph":"é\ud800<&> "}`, `{"graph":"g"} {"graph":"h"}`, `null`, `[]`, `{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeJobRequest(bytes.NewReader(body))
		if err != nil || validateJobRequest(req) != nil {
			return
		}
		spec, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request %+v does not marshal: %v", req, err)
		}
		var back journaledRequest
		if err := json.Unmarshal(spec, &back); err != nil || back.LegacyRefine != 0 || back.jobRequest != req {
			t.Fatalf("spec %s decodes to %+v (err %v), the live request is %+v", spec, back, err, req)
		}
		if err := validateJobRequest(back.jobRequest); err != nil {
			t.Fatalf("spec %s no longer validates: %v", spec, err)
		}
	})
}

// TestConcurrentPatchesReplayInOrder: PATCHes, uploads and DELETEs racing
// on one worker reach the journal in the order they reached the catalog,
// so the restart meets every batch with the graph it was applied to — no
// frame refused, the same graphs as before it. Every batch here changes the
// vertex count, so two frames in the wrong order cannot both replay.
func TestConcurrentPatchesReplayInOrder(t *testing.T) {
	dir := t.TempDir()
	startup := gen.Grid2D(4, 4)
	s, ts := startWorker(t, dir, startup, nil)
	uploadGraph(t, ts.URL, "hot", gridGraph(4))
	const writers, rounds = 6, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := fmt.Sprintf("own%d", w)
			for r := 0; r < rounds; r++ {
				op := "addEdge"
				if r%2 == 1 {
					op = "delEdge"
				}
				body := fmt.Sprintf(`{"mutations":[{"op":"addVertices","count":1},{"op":%q,"u":0,"v":%d}]}`, op, w+2)
				// 429: the batch is applied and journaled, only its refinement was not queued.
				if code, b := patchGraph(t, ts.URL, "hot", body); code != http.StatusAccepted && code != http.StatusTooManyRequests {
					t.Errorf("writer %d round %d: PATCH status %d: %s", w, r, code, b)
				}
				if resp, b := postJSON(t, ts.URL+"/graphs?name="+own+"&format=edges", pathGraph(5+r)); resp.StatusCode != http.StatusCreated {
					t.Errorf("writer %d round %d: upload status %d: %s", w, r, resp.StatusCode, b)
				}
				if r < rounds-1 {
					if resp, b := doReq(t, "DELETE", ts.URL+"/graphs/"+own); resp.StatusCode != http.StatusNoContent {
						t.Errorf("writer %d round %d: DELETE status %d: %s", w, r, resp.StatusCode, b)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	before := graphInfos(t, ts.URL)
	if in := before["hot"]; in.Vertices != 16+writers*rounds || len(before) != 2+writers {
		t.Fatalf("before the restart: hot = %+v among %d graphs", in, len(before))
	}
	ts.Close()
	s.Close()

	var logged bytes.Buffer
	s2, ts2 := startWorker(t, dir, startup, &logged)
	after := graphInfos(t, ts2.URL)
	ts2.Close()
	s2.Close()
	if strings.Contains(logged.String(), "not replayed") {
		t.Fatalf("frames refused at replay:\n%s", logged.String())
	}
	for name, want := range before {
		if got := after[name]; got != want {
			t.Errorf("%s after the restart = %+v\n\tbefore it: %+v", name, got, want)
		}
	}
}
