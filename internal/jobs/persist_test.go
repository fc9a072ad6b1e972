package jobs

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/linalg"
	"repro/internal/pipeline"
	"repro/internal/workspace"
)

// writeFrames writes a job journal holding the given frames into a fresh
// directory, through the same journal.Append the engine uses.
func writeFrames(t *testing.T, frames ...journal.Frame) string {
	t.Helper()
	dir := t.TempDir()
	j, err := journal.Open(filepath.Join(dir, JournalFile), nil, func(journal.Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := j.Append(f.Kind, f.Key, func(b []byte) ([]byte, error) { return append(b, f.Payload...), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// resultFrame builds a result frame from a header and coordinates.
func resultFrame(key, head string, coords ...float64) journal.Frame {
	return journal.Frame{Kind: kindResult, Key: key, Payload: appendCoords([]byte(head), coords)}
}

func readJournal(t *testing.T, dir string) *Snapshot {
	t.Helper()
	snap, err := ReadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestReadRecordCurrent(t *testing.T) {
	head, err := json.Marshal(Record{
		Version: PersistVersion,
		Status:  Status{ID: "j000001", State: "done"},
		Dims:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := readJournal(t, writeFrames(t, resultFrame("j000001", string(head), 1, 2, 3, 4)))
	if len(snap.Errs) != 0 || len(snap.Results) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	got := snap.Results[0]
	if got.Version != PersistVersion || got.Status.ID != "j000001" || got.Dims != 2 || len(got.Coords) != 4 || got.Coords[3] != 4 {
		t.Fatalf("record = %+v", got)
	}
}

func TestReadRecordLegacyWithoutVersion(t *testing.T) {
	// A header without a version key reads as version 0; an additive newer
	// writer may emit keys this reader has never heard of. Both must load.
	snap := readJournal(t, writeFrames(t, resultFrame("j000002",
		`{"status":{"id":"j000002","state":"done"},"dims":2,"futureField":"ignored"}`, 1, 2, 3, 4)))
	if len(snap.Errs) != 0 || len(snap.Results) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	got := snap.Results[0]
	if got.Version != 0 {
		t.Fatalf("versionless header decoded version %d, want 0", got.Version)
	}
	if got.Status.ID != "j000002" || len(got.Coords) != 4 {
		t.Fatalf("record = %+v", got)
	}
}

func TestReadRecordRejections(t *testing.T) {
	cases := []struct {
		name    string
		frame   journal.Frame
		wantErr string
	}{
		{"future version", resultFrame("j1", `{"version":99,"dims":2}`, 1, 2), "newer than supported"},
		{"corrupt json", resultFrame("j1", `{"version":1,"dims":`, 1, 2), "decoding"},
		{"coords not divisible by dims", resultFrame("j1", `{"version":1,"dims":3}`, 1, 2, 3, 4), "not divisible"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The refused frame sits between two good ones: it is reported
			// and stepped over, never misread, and hides nothing.
			snap := readJournal(t, writeFrames(t,
				resultFrame("j0", `{"version":1,"dims":1}`, 7), tc.frame, resultFrame("j2", `{"version":1,"dims":1}`, 9)))
			if len(snap.Errs) != 1 || !strings.Contains(snap.Errs[0].Error(), tc.wantErr) {
				t.Fatalf("errs = %v, want one with substring %q", snap.Errs, tc.wantErr)
			}
			if len(snap.Results) != 2 || snap.Results[0].Coords[0] != 7 || snap.Results[1].Coords[0] != 9 {
				t.Fatalf("results = %+v", snap.Results)
			}
		})
	}
	if _, err := ReadJournal(t.TempDir()); err == nil {
		t.Fatal("reading a missing journal succeeded")
	}
}

// TestResultRoundTripsBitExact: a finished job's coordinates come back
// from the journal bit for bit — an ordinary layout's, and one holding NaN
// and ±Inf (which the JSON-array records of old could not represent: the
// job ended with neither record nor intent).
func TestResultRoundTripsBitExact(t *testing.T) {
	weird := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8000000000abc),
		math.Copysign(0, -1), 5e-324, math.MaxFloat64, 1.0 / 3}
	dir := t.TempDir()
	layouts := map[string]*core.Layout{} // by job id; read after Close
	e := New(testCatalog(t), Config{Workers: 1, Journal: OpenJournal(dir, nil),
		OnDone: func(j *Job, _ *graph.CSR, _ pipeline.Config, res *pipeline.Result) { layouts[j.ID()] = res.Layout },
		run: func(ctx context.Context, g *graph.CSR, cfg pipeline.Config) (*pipeline.Result, error) {
			if cfg.Layout.Seed == 99 {
				l := &core.Layout{Coords: linalg.NewDense(len(weird)/2, 2)}
				copy(l.Coords.Data, weird)
				res := fakeResult(l)
				res.Quality.HallRatio = math.NaN()
				return res, nil
			}
			return pipeline.RunCtx(ctx, g, cfg)
		}})
	defer e.Close()
	plain, err := e.SubmitSpec("grid", pipeline.Config{Layout: core.Options{Subspace: 8, Seed: 1}}, []byte(`{"graph":"grid"}`), "")
	if err != nil {
		t.Fatal(err)
	}
	odd, err := e.SubmitSpec("grid", pipeline.Config{Layout: core.Options{Seed: 99}}, []byte(`{"graph":"grid"}`), "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, plain, StateDone)
	waitState(t, odd, StateDone)
	e.Close()

	snap := readJournal(t, dir)
	if len(snap.Errs) != 0 || len(snap.Pending) != 0 || len(snap.Results) != 2 {
		t.Fatalf("journal holds %d results, %d pending, errs %v", len(snap.Results), len(snap.Pending), snap.Errs)
	}
	for i, j := range []*Job{plain, odd} {
		rec, want := snap.Results[i], layouts[j.ID()].Coords.Data
		if rec.Status.ID != j.ID() || rec.Status.State != "done" || rec.Dims != 2 || len(rec.Coords) != len(want) {
			t.Fatalf("record %d = id %s state %s dims %d, %d coords (want %d)", i, rec.Status.ID, rec.Status.State, rec.Dims, len(rec.Coords), len(want))
		}
		for k := range want {
			if math.Float64bits(rec.Coords[k]) != math.Float64bits(want[k]) {
				t.Fatalf("record %d coord %d = %x, layout has %x", i, k, math.Float64bits(rec.Coords[k]), math.Float64bits(want[k]))
			}
		}
	}
	if snap.Results[0].Quality == nil || snap.Results[1].Quality != nil {
		t.Fatalf("quality: ordinary %v (want kept), NaN-valued %v (want dropped)", snap.Results[0].Quality, snap.Results[1].Quality)
	}
}

// journalAppendBudget reads the journal_append row of the allocation gate.
func journalAppendBudget(t *testing.T) (allocs float64, bytesPerOp uint64) {
	t.Helper()
	raw, err := os.ReadFile("../../perf/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		SteadyState map[string]struct {
			AllocsPerOp float64 `json:"allocs_per_op"`
			BytesPerOp  uint64  `json:"bytes_per_op"`
		} `json:"steady_state"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	b, ok := f.SteadyState["journal_append"]
	if !ok {
		t.Fatal("perf/alloc_budget.json has no steady_state.journal_append")
	}
	return b.AllocsPerOp, b.BytesPerOp
}

// TestJournalAppendAllocBudget is the persistence row of the allocation
// gate: journaling a finished Road(100×100) layout through a warm journal
// allocates the JSON header and nothing that grows with the graph (the
// coordinates alone are 160 KB).
func TestJournalAppendAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	maxAllocs, maxBytes := journalAppendBudget(t)
	g := gen.Road(100, 100, 1)
	res, err := pipeline.RunCtx(context.Background(), g, pipeline.Config{Layout: core.Options{Subspace: 8, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	e := New(testCatalog(t), Config{Workers: 1, Journal: OpenJournal(t.TempDir(), nil), run: fastRun})
	defer e.Close()
	// What a worker does after a job's last phase, minus the run itself:
	// metrics, the result frame (status snapshot, header, coordinates), hook.
	now := time.Now()
	j := &Job{id: "j000001", graph: "road", spec: []byte(`{}`), started: now, cancel: func() {}}
	j.finish(StateDone, res, nil)
	appendOne := func() { e.finalize(j, res, true) }
	appendOne()
	const runs = 20
	// TotalAlloc also counts what other goroutines allocate meanwhile (the
	// race runtime's included), so the least of a few rounds is the
	// append's own cost.
	bytesPer := uint64(math.MaxUint64)
	for round := 0; round < 5; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			appendOne()
		}
		runtime.ReadMemStats(&after)
		bytesPer = min(bytesPer, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	allocs := testing.AllocsPerRun(runs, appendOne)
	t.Logf("warm result append of Road(100²) (%d coordinates): %.0f allocs, %d bytes", len(res.Layout.Coords.Data), allocs, bytesPer)
	if allocs > maxAllocs || bytesPer > maxBytes {
		t.Errorf("warm append allocates %.0f objects / %d bytes, budget is %.0f / %d — if intentional, raise journal_append in perf/alloc_budget.json",
			allocs, bytesPer, maxAllocs, maxBytes)
	}
	if errs := e.journalErrs.Value(); errs != 0 {
		t.Fatalf("%d appends failed", errs)
	}
}

// workspaceSpy wraps the real pipeline in a run hook that records every
// distinct workspace a job is handed.
type workspaceSpy struct {
	mu   sync.Mutex
	seen map[*workspace.Workspace]bool
}

func (w *workspaceSpy) run(ctx context.Context, g *graph.CSR, cfg pipeline.Config) (*pipeline.Result, error) {
	w.mu.Lock()
	if w.seen == nil {
		w.seen = map[*workspace.Workspace]bool{}
	}
	w.seen[cfg.Layout.Workspace] = true
	w.mu.Unlock()
	return pipeline.RunCtx(ctx, g, cfg)
}

func (w *workspaceSpy) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.seen)
}

// TestWorkerWorkspaceReuseMatchesFresh submits 12 jobs at once over two
// graph shapes to three workers, which hand a few workspaces between
// them, each dirtied and reshaped by the runs before: every layout handed
// to OnDone must stay bit-identical to a fresh standalone pipeline run of
// its graph after the later runs (the clone-out of workspace-backed
// results), and no more
// workspaces than workers may exist.
func TestWorkerWorkspaceReuseMatchesFresh(t *testing.T) {
	cfg := pipeline.Config{Layout: core.Options{Subspace: 8, Seed: 7}, SkipQuality: true}
	cat := testCatalog(t)
	if err := cat.Add("road", gen.Road(17, 23, 3), "test"); err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{}
	for _, name := range []string{"grid", "road"} {
		g, _ := cat.Get(name)
		res, err := pipeline.RunCtx(context.Background(), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = res.Layout.Coords.Data
	}
	spy := &workspaceSpy{}
	const workers = 3
	type finished struct {
		j   *Job
		res *pipeline.Result
	}
	const submits = 12
	done := make(chan finished, submits)
	e := New(cat, Config{Workers: workers, run: spy.run,
		OnDone: func(j *Job, _ *graph.CSR, _ pipeline.Config, res *pipeline.Result) { done <- finished{j, res} }})
	defer e.Close()
	for i := 0; i < submits; i++ {
		if _, err := e.Submit([]string{"grid", "road"}[i%2], cfg); err != nil {
			t.Fatal(err)
		}
	}
	var got []finished // all in before any is checked: later runs reuse the workspaces
	for i := 0; i < submits; i++ {
		got = append(got, <-done)
	}
	for i, f := range got {
		j := f.j
		if f.res == nil {
			t.Fatalf("job %s (%s) ended %v", j.ID(), j.Graph(), j.State())
		}
		c, w := f.res.Layout.Coords.Data, want[j.Graph()]
		if len(c) != len(w) {
			t.Fatalf("job %d (%s): %d coords, want %d", i, j.Graph(), len(c), len(w))
		}
		for k := range c {
			if c[k] != w[k] {
				t.Fatalf("job %d (%s): coord %d = %v, fresh run has %v", i, j.Graph(), k, c[k], w[k])
			}
		}
	}
	if n := spy.count(); n > workers {
		t.Fatalf("%d workspaces for %d workers", n, workers)
	}
}

// TestSequentialJobsShareOneWorkspace runs 8 Road(100²) jobs one after
// another on four workers: each job finds the last one's workspace on the
// free list, so after the first job the engine allocates only the result
// clones and per-job headers. Four private workspaces, one per worker,
// would each be warmed in turn (≈ 1.7 MB apiece at s = 10).
func TestSequentialJobsShareOneWorkspace(t *testing.T) {
	g := gen.Road(100, 100, 1)
	cat := catalog.New(-1)
	if err := cat.Add("road", g, "test"); err != nil {
		t.Fatal(err)
	}
	done := make(chan *Job, 1)
	spy := &workspaceSpy{}
	e := New(cat, Config{Workers: 4, run: spy.run,
		OnDone: func(j *Job, _ *graph.CSR, _ pipeline.Config, _ *pipeline.Result) { done <- j }})
	defer e.Close()
	cfg := pipeline.Config{Layout: core.Options{Seed: 1}}
	runOne := func() {
		if _, err := e.Submit("road", cfg); err != nil {
			t.Fatal(err)
		}
		if j := <-done; j.State() != StateDone {
			t.Fatalf("job %s ended %v", j.ID(), j.State())
		}
	}
	runOne()
	const jobs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i < jobs; i++ {
		runOne()
	}
	runtime.ReadMemStats(&after)
	clones := uint64(jobs * g.NumV * 2 * 8)
	const slack = 256 << 10
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("jobs 2..%d allocated %d B; %d result clones are %d B; %d workspaces", jobs, got, jobs, clones, spy.count())
	if got > clones+slack {
		t.Errorf("jobs 2..%d allocated %d B, want at most the clones (%d B) + %d B", jobs, got, clones, slack)
	}
	if n := spy.count(); n != 1 {
		t.Errorf("a sequential job stream ran on %d workspaces, want 1", n)
	}
}
