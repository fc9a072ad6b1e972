package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/pivot"
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

// TestParHDECtxCancelDuringBFS times the BFS phase of an undisturbed run
// (large grid, many pivots), then cancels the same run as that phase
// starts: the pivot loop's ctx check, before every traversal, must abandon
// the remaining ones. Both runs go through one workspace, so the second
// pays no allocation and its whole cost is what it ran before it noticed:
// a run that waits the phase out takes about bfs, one that stops at the
// next traversal — a pivot, or a 64-source batch — a fraction of it.
func TestParHDECtxCancelDuringBFS(t *testing.T) {
	g := gen.Grid2D(300, 300)
	for name, strat := range map[string]pivot.Strategy{"kcenters": pivot.KCenters, "random-ms": pivot.RandomMS} {
		t.Run(name, func(t *testing.T) {
			opt := Options{Subspace: 100, Seed: 1, Pivots: strat, Workspace: workspace.New()}
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
		})
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
	want := []string{"bfs", "tripleprod", "eigensolve", "project"}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phase[%d] = %q, want %q (all: %v)", i, phases[i], want[i], phases)
		}
	}
}
