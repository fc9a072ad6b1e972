package core

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/phase"
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

// checkedCtx is a context that counts and stamps its Err checks, and
// reports Canceled from check cancelAt on (never when it is 0). A run
// checks its context only on its own goroutine.
type checkedCtx struct {
	context.Context
	cancelAt int
	at       []time.Time // one stamp per check
	live     []string    // the run's live phase at each check
	clk      *phase.Clock
}

func (c *checkedCtx) Err() error {
	c.at = append(c.at, time.Now())
	if c.clk != nil {
		c.live = append(c.live, c.clk.Live())
	}
	if c.cancelAt > 0 && len(c.at) >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestParHDECtxCancelDuringBFS times the BFS phase of an undisturbed run
// (large grid, many pivots), then runs it again with a context that turns
// cancelled after the run's first check, so the pivot loop's check before
// the first traversal sees it: the loop must abandon every traversal.
// Both runs go through one workspace, so the second pays no allocation
// and its whole cost is what it ran before it noticed: a run that waits
// the phase out takes about bfs, one that stops at the next traversal — a
// pivot, or a 64-source batch — a fraction of it.
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
			ctx := &checkedCtx{Context: context.Background(), cancelAt: 2}
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

// TestLivePhaseFollowsRun reads the workspace clock's live phase at each of
// a run's context checks: idle at the first, then the BFS set-up, DOrtho
// between traversals and before TripleProd, and the eigensolve and
// projection checks inside their own phases.
func TestLivePhaseFollowsRun(t *testing.T) {
	ws := workspace.New()
	ctx := &checkedCtx{Context: context.Background(), clk: &ws.Clock}
	if _, _, err := ParHDECtx(ctx, gen.Grid2D(12, 12), Options{Subspace: 8, Seed: 1, Workspace: ws}); err != nil {
		t.Fatal(err)
	}
	var seen []string
	for _, p := range ctx.live {
		if len(seen) == 0 || seen[len(seen)-1] != p {
			seen = append(seen, p)
		}
	}
	want := []string{"", "bfs_other", "dortho", "eigensolve", "project"}
	if !slices.Equal(seen, want) {
		t.Fatalf("live phases at the checks = %v, want %v (all: %v)", seen, want, ctx.live)
	}
}
