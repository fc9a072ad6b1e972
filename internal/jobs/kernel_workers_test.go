package jobs

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pipeline"
)

// TestKernelWorkersDefault: the per-layout kernel budget defaults to
// GOMAXPROCS / Workers so a saturated pool lands near GOMAXPROCS total
// goroutines instead of Workers × GOMAXPROCS.
func TestKernelWorkersDefault(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	cases := []struct {
		workers, kernel, want int
	}{
		{4, 0, 1}, // full pool: serial kernels
		{2, 0, 2}, // half pool: split the machine
		{1, 0, 4}, // single worker: kernels get everything
		{8, 0, 1}, // oversubscribed pool still gets >= 1
		{2, 3, 3}, // explicit value wins
	}
	for _, c := range cases {
		got := Config{Workers: c.workers, KernelWorkers: c.kernel}.withDefaults().KernelWorkers
		if got != c.want {
			t.Errorf("Workers=%d KernelWorkers=%d: default %d, want %d", c.workers, c.kernel, got, c.want)
		}
	}
}

// TestKernelWorkersAppliedToJobs: a job that doesn't pin its own layout
// budget runs with the engine's KernelWorkers; a job that does keeps it.
func TestKernelWorkersAppliedToJobs(t *testing.T) {
	var sawDefault, sawExplicit int32
	e := New(testCatalog(t), Config{
		Workers:       1,
		KernelWorkers: 3,
		run: func(ctx context.Context, g *graph.CSR, cfg pipeline.Config) (*pipeline.Result, error) {
			if cfg.Layout.Workers == 3 {
				atomic.AddInt32(&sawDefault, 1)
			}
			if cfg.Layout.Workers == 2 {
				atomic.AddInt32(&sawExplicit, 1)
			}
			return fakeResult(nil), nil
		},
	})
	defer e.Close()
	j1, err := e.Submit("grid", pipeline.Config{SkipQuality: true})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := e.Submit("grid", pipeline.Config{Layout: core.Options{Workers: 2}, SkipQuality: true})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateDone)
	waitState(t, j2, StateDone)
	if sawDefault != 1 || sawExplicit != 1 {
		t.Fatalf("engine budget applied %d times, explicit kept %d times; want 1 and 1", sawDefault, sawExplicit)
	}
}

// TestBoundedGoroutinesUnderSaturatedQueue is the oversubscription
// regression test: with the pool saturated by real layout jobs, the
// process goroutine count stays near baseline + Workers. Before the
// KernelWorkers default, every running layout fanned its kernels out
// GOMAXPROCS-wide, so W jobs cost up to W × GOMAXPROCS goroutines.
func TestBoundedGoroutinesUnderSaturatedQueue(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	const workers = 4
	// KernelWorkers defaults to 4/4 = 1: layouts run their kernels
	// serially, so the only fan-out is the worker pool itself.
	e := New(testCatalog(t), Config{Workers: workers})
	defer e.Close()
	base := runtime.NumGoroutine()
	var jobsList []*Job
	for i := 0; i < 24; i++ {
		j, err := e.Submit("grid", pipeline.Config{SkipQuality: true})
		if err != nil {
			t.Fatal(err)
		}
		jobsList = append(jobsList, j)
	}
	peak := 0
	deadline := time.Now().Add(30 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g > peak {
			peak = g
		}
		done := 0
		for _, j := range jobsList {
			if j.State() == StateDone {
				done++
			}
		}
		if done == len(jobsList) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue did not drain: %d/%d done", done, len(jobsList))
		}
		time.Sleep(200 * time.Microsecond)
	}
	// Slack covers the engine's own bookkeeping goroutines and the
	// runtime's background helpers — not kernel fan-out, which would add
	// multiples of GOMAXPROCS.
	const slack = 6
	if peak > base+workers+slack {
		t.Fatalf("goroutine peak %d with baseline %d and %d workers — kernel oversubscription?", peak, base, workers)
	}
}
