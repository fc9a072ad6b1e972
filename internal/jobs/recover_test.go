package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/pipeline"
)

// fastRun is a run hook that completes immediately with a (tiny) layout,
// so the persistence path writes a real result frame.
func fastRun(ctx context.Context, g *graph.CSR, cfg pipeline.Config) (*pipeline.Result, error) {
	return fakeResult(core.RandomLayout(g.NumV, 2, 1)), nil
}

// pendingIDs lists the job ids dir's journal leaves unresolved.
func pendingIDs(t *testing.T, dir string) []string {
	t.Helper()
	snap := readJournal(t, dir)
	if len(snap.Errs) != 0 {
		t.Fatalf("journal errors: %v", snap.Errs)
	}
	var ids []string
	for _, in := range snap.Pending {
		ids = append(ids, in.ID)
	}
	return ids
}

func TestIntentRetiredOnDone(t *testing.T) {
	dir := t.TempDir()
	e := New(testCatalog(t), Config{Workers: 1, Journal: OpenJournal(dir, nil), run: fastRun})
	defer e.Close()
	j, err := e.SubmitSpec("grid", pipeline.Config{}, []byte(`{"graph":"grid"}`), "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	e.Close()
	if left := pendingIDs(t, dir); len(left) != 0 {
		t.Fatalf("intents pending after done: %v", left)
	}
	if snap := readJournal(t, dir); len(snap.Results) != 1 || snap.Results[0].Status.ID != j.ID() {
		t.Fatalf("done job has no result frame: %+v", snap.Results)
	}
	// The journal is the only thing the engine leaves in its DataDir.
	if entries, _ := os.ReadDir(dir); len(entries) != 1 || entries[0].Name() != JournalFile {
		t.Fatalf("DataDir holds %v, want only %s", entries, JournalFile)
	}
}

func TestIntentRetiredOnUserCancel(t *testing.T) {
	dir := t.TempDir()
	run, release := blockingRun()
	e := New(testCatalog(t), Config{Workers: 1, QueueDepth: 8, Journal: OpenJournal(dir, nil), run: run})
	defer e.Close()
	defer close(release)
	// First job occupies the worker; the second stays queued.
	j1, err := e.SubmitSpec("grid", pipeline.Config{}, []byte(`{}`), "")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := e.SubmitSpec("grid", pipeline.Config{}, []byte(`{}`), "")
	if err != nil {
		t.Fatal(err)
	}
	if got := pendingIDs(t, dir); len(got) != 2 {
		t.Fatalf("want 2 intents journaled, have %v", got)
	}
	if _, err := e.Cancel(j2.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, j2, StateCancelled)
	if got := pendingIDs(t, dir); len(got) != 1 || got[0] != j1.ID() {
		t.Fatalf("after a user cancel of %s the journal leaves %v pending, want only %s", j2.ID(), got, j1.ID())
	}
}

func TestIntentSurvivesShutdownAndRecovers(t *testing.T) {
	dir := t.TempDir()
	run, release := blockingRun()
	e := New(testCatalog(t), Config{Workers: 1, QueueDepth: 8, IDPrefix: "w1-", Journal: OpenJournal(dir, nil), run: run})
	running, err := e.SubmitSpec("grid", pipeline.Config{}, []byte(`{"graph":"grid","subspace":8}`), "req-8")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	queued, err := e.SubmitSpec("grid", pipeline.Config{}, []byte(`{"graph":"grid","subspace":9}`), "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(running.ID(), "w1-j") {
		t.Fatalf("id %q missing prefix", running.ID())
	}
	e.Close() // shutdown cancels both; neither was resolved
	close(release)

	// A new engine on the same dir finds both, oldest first, specs
	// verbatim, and continues the id sequence past them.
	e2 := New(testCatalog(t), Config{Workers: 1, IDPrefix: "w1-", Journal: OpenJournal(dir, nil), run: fastRun})
	defer e2.Close()
	pending := e2.Pending()
	if len(pending) != 2 {
		t.Fatalf("want 2 pending intents, have %+v", pending)
	}
	if pending[0].ID != running.ID() || pending[1].ID != queued.ID() {
		t.Fatalf("pending order %q, %q", pending[0].ID, pending[1].ID)
	}
	if string(pending[0].Spec) != `{"graph":"grid","subspace":8}` || pending[0].Graph != "grid" ||
		pending[0].RequestID != "req-8" || pending[1].RequestID != "" {
		t.Fatalf("intent round-trip: %+v", pending)
	}
	j, err := e2.SubmitSpec("grid", pipeline.Config{}, pending[0].Spec, pending[0].RequestID)
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Status().RequestID; got != "req-8" {
		t.Fatalf("replayed job reports request ID %q, want req-8", got)
	}
	if j.ID() != "w1-j000003" {
		t.Fatalf("restarted engine issued id %q, want w1-j000003", j.ID())
	}
	for _, in := range pending {
		e2.Retire(in.ID)
	}
	waitState(t, j, StateDone)
	e2.Close()
	if left := pendingIDs(t, dir); len(left) != 0 {
		t.Fatalf("intents pending after recovery: %v", left)
	}
	// A third life replays nothing and still never reuses an id.
	e3 := New(testCatalog(t), Config{Workers: 1, IDPrefix: "w1-", Journal: OpenJournal(dir, nil), run: fastRun})
	defer e3.Close()
	if len(e3.Pending()) != 0 {
		t.Fatalf("third start replays %+v", e3.Pending())
	}
	if j, err := e3.Submit("grid", pipeline.Config{}); err != nil || j.ID() != "w1-j000004" {
		t.Fatalf("third life issued %v (err %v), want w1-j000004", j, err)
	}
}

func intentFrame(key string, in Intent) journal.Frame {
	b, _ := json.Marshal(in)
	return journal.Frame{Kind: kindIntent, Key: key, Payload: b}
}

func TestPendingIntentsToleratesCorruptAndFuture(t *testing.T) {
	dir := writeFrames(t,
		journal.Frame{Kind: kindIntent, Key: "j000001", Payload: []byte(`{not json`)},
		intentFrame("j000002", Intent{Version: PersistVersion + 1, ID: "j000002", Graph: "g"}),
		journal.Frame{Kind: kindIntent, Key: "j000003", Payload: []byte(`{"version":1,"graph":"g"}`)}, // missing id
		intentFrame("j000004", Intent{Version: PersistVersion, ID: "j000004", Graph: "g", Spec: json.RawMessage(`{}`), Created: time.Now()}),
		// j000005 completed; the process died before anything after its
		// result frame. It must not run again.
		intentFrame("j000005", Intent{Version: PersistVersion, ID: "j000005", Graph: "g", Spec: json.RawMessage(`{}`)}),
		resultFrame("j000005", `{"version":1,"dims":1}`, 1),
		// j000006 was retired (failed or cancelled by its user).
		intentFrame("j000006", Intent{Version: PersistVersion, ID: "j000006", Graph: "g", Spec: json.RawMessage(`{}`)}),
		journal.Frame{Kind: kindRetire, Key: "j000006"},
		// A kind from some later writer is stepped over.
		journal.Frame{Kind: 'Q', Key: "j000004", Payload: []byte("?")},
	)
	check := func(who string, pending []Intent, refused []string, seq int64) {
		t.Helper()
		if len(pending) != 1 || pending[0].ID != "j000004" {
			t.Fatalf("%s: pending = %+v", who, pending)
		}
		if len(refused) != 3 {
			t.Fatalf("%s: want 3 refused frames (corrupt, future, missing-id), got %q", who, refused)
		}
		if !strings.Contains(refused[1], "newer than supported") {
			t.Fatalf("%s: future-versioned intent refused as %q", who, refused[1])
		}
		if seq != 6 {
			t.Fatalf("%s: sequence continues from %d, want 6", who, seq)
		}
	}
	snap := readJournal(t, dir)
	var refused []string
	for _, err := range snap.Errs {
		refused = append(refused, err.Error())
	}
	check("ReadJournal", snap.Pending, refused, snap.Seq)

	// The engine's own start-up scan (which skips result payloads) agrees.
	var logged strings.Builder
	e := New(testCatalog(t), Config{Workers: 1, Journal: OpenJournal(dir, nil), run: fastRun, Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	defer e.Close()
	check("engine", e.Pending(), strings.Split(strings.TrimSpace(logged.String()), "\n"), e.seq)
}

// TestTornResultFrameReplaysTheJob: a crash in the middle of a result
// append leaves a torn tail; the restart drops it, the job's intent is
// pending again, and the next append lands on the cleaned boundary.
func TestTornResultFrameReplaysTheJob(t *testing.T) {
	dir := t.TempDir()
	e := New(testCatalog(t), Config{Workers: 1, Journal: OpenJournal(dir, nil), run: fastRun})
	j, err := e.SubmitSpec("grid", pipeline.Config{}, []byte(`{"graph":"grid"}`), "")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	e.Close()
	path := filepath.Join(dir, JournalFile)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-9); err != nil {
		t.Fatal(err)
	}
	e2 := New(testCatalog(t), Config{Workers: 1, Journal: OpenJournal(dir, nil), run: fastRun})
	defer e2.Close()
	if p := e2.Pending(); len(p) != 1 || p[0].ID != j.ID() {
		t.Fatalf("pending after a torn result = %+v, want %s", p, j.ID())
	}
	j2, err := e2.SubmitSpec("grid", pipeline.Config{}, e2.Pending()[0].Spec, "")
	if err != nil {
		t.Fatal(err)
	}
	e2.Retire(j.ID())
	waitState(t, j2, StateDone)
	e2.Close()
	snap := readJournal(t, dir)
	if len(snap.Pending) != 0 || len(snap.Results) != 1 || snap.Results[0].Status.ID != j2.ID() || j2.ID() == j.ID() {
		t.Fatalf("after replay: pending %+v, results %d (job %s replayed as %s)", snap.Pending, len(snap.Results), j.ID(), j2.ID())
	}
}

// countingReader counts the bytes a scan asks for.
type countingReader struct {
	f *os.File
	n int64
}

func (c *countingReader) ReadAt(p []byte, off int64) (int, error) {
	c.n += int64(len(p))
	return c.f.ReadAt(p, off)
}

// TestRestartDoesNotReadResultPayloads: an engine started on a journal of
// 1000 finished jobs learns what it needs (no pending work, where the id
// sequence stands) from the frames' fixed parts; the bytes it reads do not
// depend on how many coordinates the results hold.
func TestRestartDoesNotReadResultPayloads(t *testing.T) {
	const jobs, coords = 1000, 2000
	dir := t.TempDir()
	j, err := journal.Open(filepath.Join(dir, JournalFile), nil, func(journal.Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, coords)
	for i := 1; i <= jobs; i++ {
		id := fmt.Sprintf("w1-j%06d", i)
		in, _ := json.Marshal(Intent{Version: PersistVersion, ID: id, Graph: "grid", Spec: json.RawMessage(`{"graph":"grid"}`)})
		if err := j.Append(kindIntent, id, func(b []byte) ([]byte, error) { return append(b, in...), nil }); err != nil {
			t.Fatal(err)
		}
		if i == jobs/2 {
			continue // one job the previous life never finished
		}
		if err := j.Append(kindResult, id, func(b []byte) ([]byte, error) { return appendCoords(append(b, `{"version":1,"dims":2}`...), xs), nil }); err != nil {
			t.Fatal(err)
		}
	}
	size := j.Size()
	j.Close()

	f, err := os.Open(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cr := &countingReader{f: f}
	var snap Snapshot
	if end := journal.Scan(cr, size, skipResult, snap.apply); end != size {
		t.Fatalf("scan stopped at %d of %d", end, size)
	}
	// The fixed part and the key of every frame, the intents, the tail.
	if limit := int64(2*jobs*256 + 8*coords); cr.n > limit || cr.n > size/8 {
		t.Fatalf("start-up scan read %d bytes of a %d-byte journal (limit %d)", cr.n, size, limit)
	}
	if len(snap.Pending) != 1 || snap.Seq != jobs || len(snap.Errs) != 0 {
		t.Fatalf("scan found %d pending, seq %d, errs %v", len(snap.Pending), snap.Seq, snap.Errs)
	}

	e := New(testCatalog(t), Config{Workers: 1, IDPrefix: "w1-", Journal: OpenJournal(dir, nil), run: fastRun})
	defer e.Close()
	if p := e.Pending(); len(p) != 1 || p[0].ID != fmt.Sprintf("w1-j%06d", jobs/2) {
		t.Fatalf("engine pending = %+v", p)
	}
	if nj, err := e.Submit("grid", pipeline.Config{}); err != nil || nj.ID() != fmt.Sprintf("w1-j%06d", jobs+1) {
		t.Fatalf("next id %v (err %v)", nj, err)
	}
}

// TestForeignFramesAreNotJobs: the journal is shared with a layer that keeps
// its own kinds in it, under keys that are graph names. Those frames reach
// OpenJournal's callback in file order with their payloads, written through
// Engine.Append they count in the same metrics, and nothing about them reads
// as a job: a graph named proj7 is not job sequence 7, and a key shared with
// a job neither resolves nor resurrects its intent.
func TestForeignFramesAreNotJobs(t *testing.T) {
	dir := t.TempDir()
	e := New(testCatalog(t), Config{Workers: 1, Journal: OpenJournal(dir, nil), run: fastRun})
	put := func(kind byte, key, payload string) {
		e.Append(kind, key, func(b []byte) ([]byte, error) { return append(b, payload...), nil })
	}
	put('g', "proj7", "graph bytes")
	j, err := e.SubmitSpec("grid", pipeline.Config{}, []byte(`{"graph":"grid"}`), "")
	if err != nil {
		t.Fatal(err)
	}
	put('m', j.ID(), "a batch keyed like the job")
	waitState(t, j, StateDone)
	put('d', "proj7", "")
	e.Close()
	if n := e.appendSeconds.Count(); n != 5 || e.journalErrs.Value() != 0 {
		t.Fatalf("%d appends timed, %d failed; want all 5 frames through one path", n, e.journalErrs.Value())
	}

	snap := readJournal(t, dir)
	if snap.Seq != 1 || len(snap.Pending) != 0 || len(snap.Results) != 1 || len(snap.Errs) != 0 {
		t.Fatalf("ReadJournal: seq %d, pending %+v, %d results, errs %v; want the one job, resolved", snap.Seq, snap.Pending, len(snap.Results), snap.Errs)
	}
	var foreign []string
	jrn := OpenJournal(dir, func(f journal.Frame) { foreign = append(foreign, fmt.Sprintf("%c %s %s", f.Kind, f.Key, f.Payload)) })
	want := []string{"g proj7 graph bytes", "m " + j.ID() + " a batch keyed like the job", "d proj7 "}
	if !slices.Equal(foreign, want) {
		t.Fatalf("foreign frames = %q, want %q", foreign, want)
	}
	e2 := New(testCatalog(t), Config{Workers: 1, Journal: jrn, run: fastRun})
	defer e2.Close()
	if nj, err := e2.Submit("grid", pipeline.Config{}); err != nil || nj.ID() != "j000002" || len(e2.Pending()) != 0 {
		t.Fatalf("next id %v (err %v), pending %+v; want j000002 and nothing to replay", nj, err, e2.Pending())
	}
}
