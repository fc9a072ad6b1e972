package core

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/pivot"
	"repro/internal/workspace"
)

// budgetEngine is a layout engine with the options the budget invariance
// tests run it under.
type budgetEngine struct {
	name string
	run  func(*graph.CSR, Options) (*Layout, *Report, error)
	opt  Options
}

// budgetEngines are the engines the budget invariance tests run on an
// unweighted graph.
var budgetEngines = []budgetEngine{
	{"parhde/kcenters", ParHDE, Options{Subspace: 8, Seed: 11}},
	{"parhde/random", ParHDE, Options{Subspace: 8, Seed: 11, Pivots: pivot.Random}},
	{"phde", PHDE, Options{Subspace: 8, Seed: 11}},
	{"pivotmds", PivotMDS, Options{Subspace: 8, Seed: 11}},
	{"prior", Prior, Options{Subspace: 8, Seed: 11}},
}

// weightedEngines are the engines whose weighted path runs Δ-stepping in
// place of BFS, on the layout's budget.
var weightedEngines = []budgetEngine{
	{"parhde/weighted", ParHDE, Options{Subspace: 8, Seed: 11}},
	{"phde/weighted", PHDE, Options{Subspace: 8, Seed: 11}},
}

// TestParHDEBitIdenticalAcrossWorkerBudgets is the layout-level budget
// invariance property: for a fixed seed, the coordinates are bitwise
// identical whether the run uses 1, 2, or 4 workers — for every engine
// and, under ParHDE, for Random, whose rounds hold one BFS per worker,
// and for the weighted ParHDE and PHDE — with fresh allocations or a
// pooled workspace shared across all budgets; every engine reports the
// budget it ran on.
func TestParHDEBitIdenticalAcrossWorkerBudgets(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	kron := gen.Kron(13, 8, 3)                                // n=8192: spans two reduction tiles, admits 4-way block fan-out
	road := gen.WithRandomWeights(gen.Road(96, 96, 7), 9, 11) // n=9216: spans three tiles
	ws := workspace.New()                                     // shared across budgets: arenas must be budget-independent
	for _, set := range []struct {
		g       *graph.CSR
		engines []budgetEngine
	}{{kron, budgetEngines}, {road, weightedEngines}} {
		g := set.g
		for _, c := range set.engines {
			opt := c.opt
			opt.Workers = 1
			ref, refRep, err := c.run(g, opt)
			if err != nil {
				t.Fatalf("%s workers=1: %v", c.name, err)
			}
			if refRep.Workers != 1 {
				t.Fatalf("%s: Report.Workers = %d, want 1", c.name, refRep.Workers)
			}
			for _, p := range []int{2, 4} {
				opt := c.opt
				opt.Workers = p
				opt.Workspace = ws
				lay, rep, err := c.run(g, opt)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", c.name, p, err)
				}
				if rep.Workers != p {
					t.Fatalf("%s workers=%d: Report.Workers = %d", c.name, p, rep.Workers)
				}
				if len(lay.Coords.Data) != len(ref.Coords.Data) {
					t.Fatalf("%s workers=%d: coordinate count diverged", c.name, p)
				}
				for k := range ref.Coords.Data {
					if lay.Coords.Data[k] != ref.Coords.Data[k] {
						t.Fatalf("%s workers=%d: Coords[%d] = %v, want %v (bitwise)",
							c.name, p, k, lay.Coords.Data[k], ref.Coords.Data[k])
					}
				}
			}
		}
	}
}

// TestEvaluateBudgetInvariance: Evaluate runs on the live budget, and
// both of its sweeps fold their per-tile partials over the fixed tile
// grid in tile order, so the quality of each engine's layout is bitwise
// the same under GOMAXPROCS 1, 2, 3 and 4. The graph spans at least three
// tiles, so a per-worker partition would regroup the sums, and 3 workers
// split them unevenly.
func TestEvaluateBudgetInvariance(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	g := graph.LargestComponent(gen.Kron(14, 16, 3))
	if tiles := parallel.ReduceBlocks(g.NumV); tiles < 3 {
		t.Fatalf("n=%d spans %d tiles; need at least 3", g.NumV, tiles)
	}
	for _, c := range budgetEngines {
		opt := c.opt
		opt.Workers = 1
		lay, _, err := c.run(g, opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		runtime.GOMAXPROCS(1)
		want := Evaluate(g, lay)
		for _, p := range []int{2, 3, 4} {
			runtime.GOMAXPROCS(p)
			if got := Evaluate(g, lay); got != want {
				t.Fatalf("%s: Evaluate under GOMAXPROCS(%d) = %+v, want %+v (bitwise, as under 1)", c.name, p, got, want)
			}
		}
	}
}

// TestParHDEBitIdenticalUnderGOMAXPROCSFlips: the worker budget is
// snapshotted once at layout start, so flipping GOMAXPROCS continuously
// while the layout runs can neither re-partition a running kernel nor
// outrun the packed-arena sizing (kernels size per-worker slots from the
// snapshotted count before fanning out). Every flipped run must match
// the quiet single-worker reference bitwise.
func TestParHDEBitIdenticalUnderGOMAXPROCSFlips(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g := gen.Kron(13, 8, 3)
	ref, _, err := ParHDE(g, Options{Subspace: 8, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		procs := []int{1, 3, 2, 4}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			runtime.GOMAXPROCS(procs[i%len(procs)])
			runtime.Gosched()
		}
	}()
	ws := workspace.New()
	for r := 0; r < 4; r++ {
		// Workers: 0 snapshots whatever GOMAXPROCS happens to be at entry —
		// a different budget each round, with the value still churning
		// underneath the run.
		lay, _, err := ParHDE(g, Options{Subspace: 8, Seed: 11, Workspace: ws})
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for k := range ref.Coords.Data {
			if lay.Coords.Data[k] != ref.Coords.Data[k] {
				t.Fatalf("round %d: Coords[%d] = %v, want %v (bitwise)",
					r, k, lay.Coords.Data[k], ref.Coords.Data[k])
			}
		}
	}
	close(stop)
	<-done
}

// TestParHDEWorkersSnapshotDefault: Workers <= 0 snapshots GOMAXPROCS at
// layout start and reports the captured value.
func TestParHDEWorkersSnapshotDefault(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	g := gen.Grid2D(15, 15)
	_, rep, err := ParHDE(g, Options{Subspace: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workers != 2 {
		t.Fatalf("Report.Workers = %d, want snapshot of GOMAXPROCS(2)", rep.Workers)
	}
}
