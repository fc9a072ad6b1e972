package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/gen"
	"repro/internal/jobs"
)

// pathGraph returns an edge-list body for a path on n vertices.
func pathGraph(n int) string {
	var sb strings.Builder
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&sb, "%d %d\n", i, i+1)
	}
	return sb.String()
}

// gridGraph returns an edge-list body for a side×side grid (slow enough
// to layout, at s=50, that cancellation and queue tests can
// catch jobs in flight).
func gridGraph(side int) string {
	var sb strings.Builder
	id := func(r, c int) int { return r*side + c }
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				fmt.Fprintf(&sb, "%d %d\n", id(r, c), id(r, c+1))
			}
			if r+1 < side {
				fmt.Fprintf(&sb, "%d %d\n", id(r, c), id(r+1, c))
			}
		}
	}
	return sb.String()
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, b
}

func doReq(t *testing.T, method, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, b
}

func uploadGraph(t *testing.T, baseURL, name, body string) {
	t.Helper()
	resp, b := postJSON(t, baseURL+"/graphs?name="+name+"&format=edges", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload %s: status %d: %s", name, resp.StatusCode, b)
	}
}

func jobStatus(t *testing.T, baseURL, id string) jobs.Status {
	t.Helper()
	resp, b := doReq(t, "GET", baseURL+"/jobs/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: status %d: %s", id, resp.StatusCode, b)
	}
	var st jobs.Status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitJobState(t *testing.T, baseURL, id, want string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := jobStatus(t, baseURL, id)
		if st.State == want {
			return st
		}
		if st.State == "failed" && want != "failed" {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
	return jobs.Status{}
}

func TestGraphUploadJobAndViews(t *testing.T) {
	_, ts := newTestServerPair(t, Config{Workers: 2})

	// The startup graph is a pinned catalog entry.
	resp, b := doReq(t, "GET", ts.URL+"/graphs")
	if resp.StatusCode != 200 || !bytes.Contains(b, []byte(`"name":"default"`)) {
		t.Fatalf("GET /graphs: %d %s", resp.StatusCode, b)
	}

	uploadGraph(t, ts.URL, "path", pathGraph(40))

	// Known but not laid out yet: 409, not 404 or 500.
	resp, _ = doReq(t, "GET", ts.URL+"/graphs/path/layout.png")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("layout before job: status %d, want 409", resp.StatusCode)
	}

	resp, b = postJSON(t, ts.URL+"/jobs", `{"graph":"path","subspace":8,"seed":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d: %s", resp.StatusCode, b)
	}
	var st jobs.Status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	done := waitJobState(t, ts.URL, st.ID, "done")
	if len(done.Phases) == 0 {
		t.Fatalf("done job has no phase breakdown: %+v", done)
	}

	// The completed job installs the layout; the per-graph views go live
	// (poll briefly: install runs just after the state flips).
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ = doReq(t, "GET", ts.URL+"/graphs/path/layout.png")
		if resp.StatusCode == 200 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("layout after job: status %d", resp.StatusCode)
	}
	resp, b = doReq(t, "GET", ts.URL+"/graphs/path/stats")
	if resp.StatusCode != 200 || !bytes.Contains(b, []byte(`"graph":"path"`)) {
		t.Fatalf("stats after job: %d %s", resp.StatusCode, b)
	}
	resp, _ = doReq(t, "GET", ts.URL+"/graphs/path/zoom.png?v=5&hops=3")
	if resp.StatusCode != 200 {
		t.Fatalf("zoom after job: status %d", resp.StatusCode)
	}
	// GET /jobs lists the job.
	resp, b = doReq(t, "GET", ts.URL+"/jobs")
	if resp.StatusCode != 200 || !bytes.Contains(b, []byte(st.ID)) {
		t.Fatalf("GET /jobs: %d %s", resp.StatusCode, b)
	}
}

func TestAPIStatusCodes(t *testing.T) {
	_, ts := newTestServerPair(t, Config{Workers: 1})

	cases := []struct {
		method, path, body string
		want               int
	}{
		// 404: unknown graph and job ids.
		{"GET", "/graphs/nope/layout.png", "", 404},
		{"GET", "/graphs/nope/stats", "", 404},
		{"GET", "/graphs/nope/zoom.png?v=0&hops=2", "", 404},
		{"GET", "/jobs/jnope", "", 404},
		{"DELETE", "/jobs/jnope", "", 404},
		{"DELETE", "/graphs/nope", "", 404},
		{"POST", "/jobs", `{"graph":"nope"}`, 404},
		// 400: malformed bodies and options.
		{"POST", "/jobs", `{not json`, 400},
		{"POST", "/jobs", `{"graph":"default","algorithm":"quantum"}`, 400},
		{"POST", "/jobs", `{"graph":"default","subspaec":10}`, 400}, // typo → unknown field
		{"POST", "/jobs", `{"graph":"default","dims":99}`, 400},
		{"POST", "/jobs", `{"subspace":10}`, 400},                    // missing graph
		{"POST", "/graphs?format=edges", "0 1\n", 400},               // missing name
		{"POST", "/graphs?name=x&format=nope", "0 1\n", 400},         // unknown format
		{"POST", "/graphs?name=bad/name&format=edges", "0 1\n", 400}, // invalid name
		{"POST", "/graphs?name=x&format=edges", "zz\n", 400},         // parse error
		{"POST", "/graphs?name=x&format=edges&weighted=1", "0 1 NaN\n", 400},
		{"POST", "/graphs?name=x&format=edges&weighted=1", "0 1 2\n1 2 -Inf\n", 400},
		{"POST", "/graphs?name=x&format=mtx", mtxPattern + "2 2 -1\n1 2\n", 400},
		{"GET", "/zoom.png?v=-1", "", 400},
		// 409: duplicates, pinned deletes, not-laid-out views.
		{"POST", "/graphs?name=default&format=edges", "0 1\n", 409},
		{"DELETE", "/graphs/default", "", 409},
		// 201: a size line's entry count bounds nothing up front, and an
		// unweighted build ignores the weight field.
		{"POST", "/graphs?name=nnz&format=mtx", mtxPattern + "2 2 99999999999999\n1 2\n", 201},
		{"POST", "/graphs?name=nan&format=edges", "0 1 NaN\n", 201},
	}
	for _, c := range cases {
		var resp *http.Response
		var b []byte
		switch c.method {
		case "POST":
			resp, b = postJSON(t, ts.URL+c.path, c.body)
		default:
			resp, b = doReq(t, c.method, ts.URL+c.path)
		}
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d (%s)", c.method, c.path, resp.StatusCode, c.want, b)
		}
	}

	// Closed routes fail loudly: a removed backend is a 400 that names the
	// accepted set and where the baselines live, a removed option (the
	// refinement post-pass, the coupled switch) is an unknown field.
	closed := []struct{ body, msg string }{
		{`{"graph":"default","algorithm":"phde"}`, "have parhde"},
		{`{"graph":"default","algorithm":"pivotmds"}`, "have parhde"},
		{`{"graph":"default","algorithm":"multilevel"}`, "cmd/parhde -algo"},
		{`{"graph":"default","algorithm":"prior"}`, "hdebench -exp"},
		{`{"graph":"default","refineSweeps":5}`, `unknown field "refineSweeps"`},
		{`{"graph":"default","coupled":true}`, `unknown field "coupled"`},
	}
	for _, c := range closed {
		resp, b := postJSON(t, ts.URL+"/jobs", c.body)
		var e apiError
		if err := json.Unmarshal(b, &e); err != nil {
			t.Errorf("POST /jobs %s: body %s: %v", c.body, b, err)
		}
		if resp.StatusCode != 400 || !strings.Contains(e.Error, c.msg) {
			t.Errorf("POST /jobs %s: status %d error %q, want 400 mentioning %q", c.body, resp.StatusCode, e.Error, c.msg)
		}
	}

	// Upload + delete round trip: 201 then 204 then 404.
	uploadGraph(t, ts.URL, "tmp", pathGraph(5))
	if resp, b := doReq(t, "DELETE", ts.URL+"/graphs/tmp"); resp.StatusCode != 204 {
		t.Fatalf("DELETE /graphs/tmp: %d %s", resp.StatusCode, b)
	}
	if resp, _ := doReq(t, "DELETE", ts.URL+"/graphs/tmp"); resp.StatusCode != 404 {
		t.Fatalf("second DELETE: %d, want 404", resp.StatusCode)
	}
}

// mtxPattern is the banner of a pattern MatrixMarket upload.
const mtxPattern = "%%MatrixMarket matrix coordinate pattern general\n"

// TestUploadCutMidLineIs413: an upload past MaxUploadBytes is a 413
// wherever in a line the limit cuts it, never a 400 for the partial line.
func TestUploadCutMidLineIs413(t *testing.T) {
	const limit = 100
	_, ts := newTestServerPair(t, Config{Workers: 1, MaxUploadBytes: limit})
	heads := map[string]string{"edges": "0 1\n", "mtx": mtxPattern + "12 12 3\n1 2\n"}
	const line = "10 11\n"
	for format, head := range heads {
		for cut := 0; cut <= len(line); cut++ {
			// A comment line sized so that the limit falls cut bytes into line.
			pad := "%" + strings.Repeat(" ", limit-cut-len(head)-2) + "\n"
			body := head + pad + line + "2 3\n"
			resp, b := postJSON(t, ts.URL+"/graphs?name=big&format="+format, body)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%s cut %d bytes into %q: status %d (%s), want 413", format, cut, line, resp.StatusCode, b)
			}
		}
	}
}

// TestQueueSaturation429 is the HTTP half of the bounded-queue acceptance
// criterion: 50 concurrent submissions against a 2-worker engine with a
// 4-deep queue must get 429s once the queue is full, and every response
// is either 202 or 429 — nothing blurs into a 500.
func TestQueueSaturation429(t *testing.T) {
	_, ts := newTestServerPair(t, Config{Workers: 2, QueueDepth: 4})
	uploadGraph(t, ts.URL, "slow", gridGraph(120))

	const clients = 50
	body := `{"graph":"slow","subspace":50,"seed":1,"skipQuality":true}`
	codes := make([]int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	accepted, rejected := 0, 0
	for i, c := range codes {
		switch c {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Errorf("submission %d: status %d", i, c)
		}
	}
	// 2 workers + 4 queue slots bound concurrent acceptance; a handful
	// more can squeeze in if a job finishes mid-burst, but with multi-
	// second layouts the rejection count must stay large.
	if accepted < 4 {
		t.Errorf("accepted %d, want >= 4", accepted)
	}
	if rejected < clients-10 {
		t.Errorf("rejected %d of %d, want >= %d", rejected, clients, clients-10)
	}
	t.Logf("accepted %d rejected %d", accepted, rejected)
}

// TestCancelRunningJobViaHTTP is the cancellation acceptance criterion:
// DELETE /jobs/{id} on a running job is observable as state "cancelled"
// via GET /jobs/{id}, quickly.
func TestCancelRunningJobViaHTTP(t *testing.T) {
	// The graph must run long enough that the job is still in flight when
	// the DELETE lands; the blocked/fused kernels keep shrinking layout
	// times, so keep this comfortably large.
	_, ts := newTestServerPair(t, Config{Workers: 1})
	uploadGraph(t, ts.URL, "slow", gridGraph(300))

	resp, b := postJSON(t, ts.URL+"/jobs",
		`{"graph":"slow","subspace":50,"seed":1,"skipQuality":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, b)
	}
	var st jobs.Status
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, ts.URL, st.ID, "running")

	if resp, b := doReq(t, "DELETE", ts.URL+"/jobs/"+st.ID); resp.StatusCode != 200 {
		t.Fatalf("DELETE /jobs/%s: %d %s", st.ID, resp.StatusCode, b)
	}
	start := time.Now()
	got := waitJobState(t, ts.URL, st.ID, "cancelled")
	if d := time.Since(start); d > 15*time.Second {
		t.Fatalf("cancellation visible after %v", d)
	}
	if got.Error == "" {
		t.Fatal("cancelled status carries no error")
	}
	// The slow graph never got a layout installed.
	resp, _ = doReq(t, "GET", ts.URL+"/graphs/slow/layout.png")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancelled graph layout: status %d, want 409", resp.StatusCode)
	}
}

// TestCatalogEvictionHonoured: the catalog byte budget is what bounds a
// worker's graphs, so the serving layer must follow it — viewing a graph
// counts as using it (the idle graph is the eviction victim, not the
// one being looked at), and an evicted graph stops rendering and gives
// up its view instead of staying resident behind the catalog's back.
func TestCatalogEvictionHonoured(t *testing.T) {
	one := catalog.GraphBytes(gen.Grid2D(12, 12))
	budget := catalog.GraphBytes(gen.PlateWithHoles(30, 30)) + 2*one + one/2 // default + two uploads
	s, ts := newTestServerPair(t, Config{Workers: 1, CatalogBytes: budget})

	layOut := func(name string) {
		t.Helper()
		resp, b := postJSON(t, ts.URL+"/jobs", `{"graph":"`+name+`","subspace":8,"seed":1}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /jobs for %s: status %d: %s", name, resp.StatusCode, b)
		}
		var st jobs.Status
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		waitJobState(t, ts.URL, st.ID, "done")
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if resp, _ := doReq(t, "GET", ts.URL+"/graphs/"+name+"/layout.png"); resp.StatusCode == 200 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("layout of %s never installed", name)
			}
		}
	}
	resident := func() string {
		var names []string
		for _, in := range s.cat.List() {
			names = append(names, in.Name)
		}
		return strings.Join(names, ",")
	}
	hasView := func(name string) bool {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.views[name] != nil
	}
	layoutStatus := func(name string) int {
		resp, _ := doReq(t, "GET", ts.URL+"/graphs/"+name+"/layout.png")
		return resp.StatusCode
	}

	uploadGraph(t, ts.URL, "A", gridGraph(12))
	layOut("A")
	uploadGraph(t, ts.URL, "B", gridGraph(12))
	for i := 0; i < 3; i++ {
		if code := layoutStatus("A"); code != 200 {
			t.Fatalf("read %d of A: status %d", i, code)
		}
	}
	uploadGraph(t, ts.URL, "C", gridGraph(12))
	if got := resident(); got != "A,C,default" {
		t.Fatalf("after uploading C the catalog holds %s; want idle B evicted, viewed A kept", got)
	}

	// A is now the least recently used: D evicts it.
	uploadGraph(t, ts.URL, "D", gridGraph(12))
	if got := resident(); got != "C,D,default" {
		t.Fatalf("after uploading D the catalog holds %s; want A evicted", got)
	}
	if code := layoutStatus("A"); code != http.StatusNotFound {
		t.Fatalf("layout of evicted A: status %d, want 404", code)
	}
	if hasView("A") {
		t.Fatal("evicted A's view (CSR + layout) is still resident")
	}

	// A name that is evicted and uploaded again is a new graph: it must
	// not render the evicted graph's layout.
	layOut("C")
	uploadGraph(t, ts.URL, "E", gridGraph(12)) // evicts D
	uploadGraph(t, ts.URL, "F", gridGraph(12)) // evicts C
	uploadGraph(t, ts.URL, "C", pathGraph(40)) // evicts E
	if code := layoutStatus("C"); code != http.StatusConflict {
		t.Fatalf("layout of re-uploaded C: status %d, want 409 (no layout yet)", code)
	}
}
