package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/workspace"
)

func TestParHDECtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := ParHDECtx(ctx, gen.Grid2D(10, 10), Options{Subspace: 8, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

// TestParHDECtxCancelDuringCoupledBFS cancels a coupled run (large grid,
// many pivots) the moment the BFS phase starts: the per-pivot ctx check
// inside coupledPhase must abandon the remaining traversals.
func TestParHDECtxCancelDuringCoupledBFS(t *testing.T) {
	cancelDuringBFS(t, Options{Subspace: 100, Seed: 1, Coupled: true})
}

// TestParHDECtxCancelDuringBFS is its default-options twin: the decoupled
// path's pivot loop lives in pivot.PhaseBudget and stops through the
// traversal hooks ParHDECtx hands it.
func TestParHDECtxCancelDuringBFS(t *testing.T) {
	cancelDuringBFS(t, Options{Subspace: 100, Seed: 1})
}

// cancelDuringBFS times the BFS phase of an undisturbed run, then cancels
// the same run as that phase starts. Both go through one workspace, so the
// second pays no allocation and its whole cost is what it ran before it
// noticed: a run that waits the phase out takes about bfs, one that stops
// at the next pivot about bfs/100.
func cancelDuringBFS(t *testing.T, opt Options) {
	g := gen.Grid2D(300, 300)
	opt.Workspace = workspace.New()
	_, rep, err := ParHDE(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	bfs := rep.Breakdown.BFSTraversal
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = WithPhaseNotify(ctx, func(phase string) {
		if phase == "bfs" {
			cancel()
		}
	})
	start := time.Now()
	layout, _, err := ParHDECtx(ctx, g, opt)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if layout != nil {
		t.Fatal("cancelled run returned a layout")
	}
	if elapsed > bfs/4 {
		t.Fatalf("cancellation honored after %v; the whole BFS phase takes %v", elapsed, bfs)
	}
}

func TestWithPhaseNotifyObservesPhaseOrder(t *testing.T) {
	var phases []string
	ctx := WithPhaseNotify(context.Background(), func(phase string) {
		phases = append(phases, phase)
	})
	if _, _, err := ParHDECtx(ctx, gen.Grid2D(12, 12), Options{Subspace: 8, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	want := []string{"bfs", "dortho", "tripleprod", "eigensolve", "project"}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phase[%d] = %q, want %q (all: %v)", i, phases[i], want[i], phases)
		}
	}
}
