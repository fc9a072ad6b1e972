package jobs

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New(-1)
	if err := c.Add("grid", gen.Grid2D(12, 12), "test"); err != nil {
		t.Fatal(err)
	}
	return c
}

// fakeResult is what a run hook returns in place of a real layout: like
// every pipeline result it carries a report.
func fakeResult(l *core.Layout) *pipeline.Result {
	return &pipeline.Result{Layout: l, Report: new(core.Report)}
}

// blockingRun returns a run hook that blocks until its context is
// cancelled or release is closed, plus the release func.
func blockingRun() (runFunc, chan struct{}) {
	release := make(chan struct{})
	return func(ctx context.Context, g *graph.CSR, cfg pipeline.Config) (*pipeline.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return fakeResult(nil), nil
		}
	}, release
}

func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %v, want %v", j.ID(), j.State(), want)
}

func TestSubmitRunsRealPipeline(t *testing.T) {
	e := New(testCatalog(t), Config{Workers: 2})
	defer e.Close()
	j, err := e.Submit("grid", pipeline.Config{Layout: core.Options{Subspace: 8, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	res := j.Result()
	if res == nil || res.Layout == nil || res.Layout.NumVertices() != 144 {
		t.Fatalf("result = %+v", res)
	}
	st := j.Status()
	if st.State != "done" || st.Graph != "grid" || st.Algorithm != "parhde" {
		t.Fatalf("status = %+v", st)
	}
	if len(st.Phases) == 0 {
		t.Fatal("status has no per-phase breakdown")
	}
	var total float64
	for _, p := range st.Phases {
		if p.Name == "total" {
			total = p.Seconds
		}
	}
	if total <= 0 {
		t.Fatalf("phases missing total: %+v", st.Phases)
	}
}

func TestSubmitUnknownGraph(t *testing.T) {
	e := New(testCatalog(t), Config{Workers: 1})
	defer e.Close()
	if _, err := e.Submit("nope", pipeline.Config{}); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatalf("error = %v, want catalog.ErrNotFound", err)
	}
}

// TestBoundedQueueAdmission is the acceptance check: 50 concurrent
// submissions against a 2-worker engine with a 4-deep queue must accept
// exactly workers+depth jobs (workers hold one each, queue holds four)
// and reject every other submission with ErrQueueFull.
func TestBoundedQueueAdmission(t *testing.T) {
	run, release := blockingRun()
	e := New(testCatalog(t), Config{Workers: 2, QueueDepth: 4, run: run})
	defer e.Close()

	// Occupy both workers and let them park in the blocking run.
	var held []*Job
	for i := 0; i < 2; i++ {
		j, err := e.Submit("grid", pipeline.Config{})
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, j)
	}
	for _, j := range held {
		waitState(t, j, StateRunning)
	}

	const clients = 50
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted, rejected := 0, 0
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.Submit("grid", pipeline.Config{})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				accepted++
			case errors.Is(err, ErrQueueFull):
				rejected++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if accepted != 4 || rejected != clients-4 {
		t.Fatalf("accepted %d rejected %d, want 4 / %d", accepted, rejected, clients-4)
	}
	close(release)
}

func TestCancelQueuedJob(t *testing.T) {
	run, release := blockingRun()
	defer close(release)
	e := New(testCatalog(t), Config{Workers: 1, QueueDepth: 4, run: run})
	defer e.Close()
	first, err := e.Submit("grid", pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, first, StateRunning)
	queued, err := e.Submit("grid", pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := e.Cancel(queued.ID())
	if err != nil {
		t.Fatal(err)
	}
	// A queued job flips to cancelled immediately, not when dequeued.
	if got := j.State(); got != StateCancelled {
		t.Fatalf("state = %v, want cancelled", got)
	}
	if _, err := e.Cancel("jnope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Cancel(unknown) = %v, want ErrUnknownJob", err)
	}
}

// TestCancelRunningJobInterruptsLayout cancels a real ParHDE run
// mid-BFS-loop: the per-pivot ctx check must stop the layout long before
// it finishes all s traversals.
func TestCancelRunningJobInterruptsLayout(t *testing.T) {
	c := catalog.New(-1)
	if err := c.Add("slow", gen.Grid2D(250, 250), "test"); err != nil {
		t.Fatal(err)
	}
	e := New(c, Config{Workers: 1})
	defer e.Close()
	j, err := e.Submit("slow", pipeline.Config{
		Layout: core.Options{Subspace: 50, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	if _, err := e.Cancel(j.ID()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	waitState(t, j, StateCancelled)
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
	if j.Result() != nil {
		t.Fatal("cancelled job has a result")
	}
	if st := j.Status(); st.Error == "" {
		t.Fatal("cancelled job has no error in status")
	}
}

func TestFailedJobState(t *testing.T) {
	c := catalog.New(-1)
	// Two disconnected vertices: ParHDE rejects disconnected graphs.
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}},
		graph.BuildOptions{KeepAllComponents: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Add("split", g, "test"); err != nil {
		t.Fatal(err)
	}
	e := New(c, Config{Workers: 1})
	defer e.Close()
	j, err := e.Submit("split", pipeline.Config{Layout: core.Options{Subspace: 4}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)
	if st := j.Status(); !strings.Contains(st.Error, "not connected") {
		t.Fatalf("error = %q", st.Error)
	}
}

// TestShutdownNoGoroutineLeak is the acceptance check: after Close, the
// worker pool is gone and queued/running jobs are cancelled.
func TestShutdownNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	run, release := blockingRun()
	defer close(release)
	e := New(testCatalog(t), Config{Workers: 4, QueueDepth: 8, run: run})
	var js []*Job
	for i := 0; i < 8; i++ {
		j, err := e.Submit("grid", pipeline.Config{})
		if err != nil {
			t.Fatal(err)
		}
		js = append(js, j)
	}
	e.Close()
	for _, j := range js {
		if s := j.State(); !s.terminal() {
			t.Fatalf("job %s left in %v after Close", j.ID(), s)
		}
	}
	if _, err := e.Submit("grid", pipeline.Config{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
	// Give exiting goroutines a moment, then compare counts.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after shutdown", before, runtime.NumGoroutine())
}

func TestResultRetentionTTLAndCount(t *testing.T) {
	fast := func(ctx context.Context, g *graph.CSR, cfg pipeline.Config) (*pipeline.Result, error) {
		return fakeResult(nil), nil
	}
	e := New(testCatalog(t), Config{Workers: 1, ResultTTL: 50 * time.Millisecond, MaxResults: 2, run: fast})
	defer e.Close()
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := e.Submit("grid", pipeline.Config{})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateDone)
		ids = append(ids, j.ID())
	}
	// Count budget: only the 2 newest finished jobs stay queryable.
	if _, ok := e.Get(ids[0]); ok {
		t.Fatal("oldest finished job survived the count budget")
	}
	if _, ok := e.Get(ids[3]); !ok {
		t.Fatal("newest finished job was purged")
	}
	// TTL: after expiry everything finished is gone.
	time.Sleep(80 * time.Millisecond)
	if got := len(e.List()); got != 0 {
		t.Fatalf("%d jobs survived the TTL", got)
	}
}

func TestPersistence(t *testing.T) {
	dir := t.TempDir()
	c := testCatalog(t)
	e := New(c, Config{Workers: 1, Journal: OpenJournal(dir, nil)})
	defer e.Close()
	j, err := e.Submit("grid", pipeline.Config{Layout: core.Options{Subspace: 8, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	// The state flips before finalize appends the result frame (on the
	// worker, ahead of OnDone); Close waits for the worker.
	e.Close()
	snap := readJournal(t, dir)
	if len(snap.Results) != 1 || len(snap.Errs) != 0 {
		t.Fatalf("journal holds %d results, errs %v", len(snap.Results), snap.Errs)
	}
	rec := snap.Results[0]
	if rec.Status.ID != j.ID() || rec.Dims != 2 || len(rec.Coords) != 2*144 || len(rec.Status.Phases) == 0 || rec.Quality == nil {
		t.Fatalf("record = id %s dims %d coords %d phases %d quality %v", rec.Status.ID, rec.Dims, len(rec.Coords), len(rec.Status.Phases), rec.Quality)
	}
	if snap.Bytes < int64(8*len(rec.Coords)) {
		t.Fatalf("journal is %d bytes, less than its coordinates", snap.Bytes)
	}
}

func TestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	run, release := blockingRun()
	e := New(testCatalog(t), Config{Workers: 1, QueueDepth: 1, Metrics: reg, run: run})
	defer e.Close()
	j1, err := e.Submit("grid", pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateRunning)
	if _, err := e.Submit("grid", pipeline.Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit("grid", pipeline.Config{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	close(release)
	waitState(t, j1, StateDone)
	if got := reg.Counter("jobs_submitted_total").Value(); got != 2 {
		t.Fatalf("jobs_submitted_total = %d", got)
	}
	if got := reg.Counter("jobs_rejected_total").Value(); got != 1 {
		t.Fatalf("jobs_rejected_total = %d", got)
	}
}
