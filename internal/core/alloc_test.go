package core

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ortho"
	"repro/internal/parallel"
	"repro/internal/pivot"
	"repro/internal/workspace"
)

// propertyGraphs is the random-graph family the reuse property is checked
// over: regular and irregular degree distributions, low and high diameter.
func propertyGraphs() map[string]*graph.CSR {
	return map[string]*graph.CSR{
		"grid":     gen.Grid2D(17, 23),
		"mesh3d":   gen.Mesh3D(7, 8, 9),
		"smallwld": gen.WattsStrogatz(700, 6, 0.1, 42),
		"scalefr":  gen.BarabasiAlbert(600, 3, 99),
	}
}

// TestWorkspaceReuseBitIdentical is the tentpole's correctness property:
// a run through a dirtied, reused workspace must be bit-identical to a
// fresh-allocation run — same coordinates, same pivots, same kept
// columns — across graph families, subspace widths, and every pipeline
// configuration that consumes workspace buffers, the weighted graph's
// Δ-stepping stream included. None of them stores the distance matrix.
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	variants := []struct {
		name     string
		opt      Options
		weighted bool
	}{
		{"decoupled-mgs", Options{}, false},
		{"weighted", Options{}, true},
		{"cgs", Options{Ortho: ortho.CGS}, false},
		{"plain-ortho", Options{PlainOrtho: true}, false},
		{"random-pivots", Options{Pivots: pivot.Random}, false},
		{"random-ms-pivots", Options{Pivots: pivot.RandomMS}, false},
	}
	ws := workspace.New()
	for _, s := range []int{4, 10, 24} {
		for gname, g := range propertyGraphs() {
			for _, v := range variants {
				t.Run(fmt.Sprintf("s%d/%s/%s", s, gname, v.name), func(t *testing.T) {
					g := g
					if v.weighted {
						g = gen.WithRandomWeights(g, 9, uint64(s))
					}
					opt := v.opt
					opt.Subspace = s
					opt.Seed = uint64(s) * 31
					fresh, frep, err := ParHDE(g, opt)
					if err != nil {
						t.Fatal(err)
					}
					// The workspace arrives dirty: it holds whatever the
					// previous subtest (different graph, width, and
					// configuration) left behind.
					opt.Workspace = ws
					got, grep, err := ParHDE(g, opt)
					if err != nil {
						t.Fatal(err)
					}
					if got.Coords.Rows != fresh.Coords.Rows || got.Coords.Cols != fresh.Coords.Cols {
						t.Fatalf("shape %dx%d, fresh %dx%d", got.Coords.Rows, got.Coords.Cols, fresh.Coords.Rows, fresh.Coords.Cols)
					}
					for i := range fresh.Coords.Data {
						if got.Coords.Data[i] != fresh.Coords.Data[i] {
							t.Fatalf("coord %d = %v, fresh run has %v", i, got.Coords.Data[i], fresh.Coords.Data[i])
						}
					}
					if len(grep.Sources) != len(frep.Sources) {
						t.Fatalf("%d sources, fresh %d", len(grep.Sources), len(frep.Sources))
					}
					for i := range frep.Sources {
						if grep.Sources[i] != frep.Sources[i] {
							t.Fatalf("source %d = %d, fresh run picked %d", i, grep.Sources[i], frep.Sources[i])
						}
					}
					if grep.KeptColumns != frep.KeptColumns || grep.DroppedColumns != frep.DroppedColumns {
						t.Fatalf("kept/dropped %d/%d, fresh %d/%d",
							grep.KeptColumns, grep.DroppedColumns, frep.KeptColumns, frep.DroppedColumns)
					}
				})
			}
		}
	}
	if ws.B != nil {
		t.Fatalf("ParHDE allocated the %dx%d distance matrix", ws.B.Rows, ws.B.Cols)
	}
}

// allocBudget mirrors perf/alloc_budget.json: the CI gate over
// steady-state allocation behavior.
type allocBudget struct {
	Comment     string `json:"comment"`
	SteadyState map[string]struct {
		AllocsPerOp float64 `json:"allocs_per_op"`
		BytesPerOp  uint64  `json:"bytes_per_op"`
	} `json:"steady_state"`
}

func loadBudget(t *testing.T) allocBudget {
	t.Helper()
	b, err := os.ReadFile("../../perf/alloc_budget.json")
	if err != nil {
		t.Fatalf("reading allocation budget: %v", err)
	}
	var budget allocBudget
	if err := json.Unmarshal(b, &budget); err != nil {
		t.Fatalf("decoding allocation budget: %v", err)
	}
	return budget
}

// TestSteadyStateAllocBudget asserts the warmed-workspace hot path stays
// within the checked-in allocation budget. It pins GOMAXPROCS to 1 so
// every kernel runs its body inline on one worker and the measurement is
// deterministic; what remains is the small shape-independent constant
// (result and report headers) the budget file pins down. The s = 64 row
// holds it to that: nothing a warm run allocates grows with s.
func TestSteadyStateAllocBudget(t *testing.T) {
	budget := loadBudget(t)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	grid := gen.Grid2D(24, 30)     // n = 720 < MinGrain·2: serial primitives
	mesh := gen.Mesh3D(10, 10, 10) // n = 1000
	for name, c := range map[string]struct {
		g         *graph.CSR
		opt       Options
		decoupled bool // decoupledPhases, not ParHDE
	}{
		// Every ParHDE run couples BFS and DOrtho (§4.4).
		"parhde_coupled":       {grid, Options{Subspace: 10, Seed: 3}, false},
		"parhde_decoupled":     {grid, Options{Subspace: 10, Seed: 3}, true},
		"parhde_random":        {grid, Options{Subspace: 10, Seed: 3, Pivots: pivot.Random}, false},
		"parhde_random_ms":     {grid, Options{Subspace: 10, Seed: 3, Pivots: pivot.RandomMS}, false},
		"parhde_random_ms_s64": {mesh, Options{Subspace: 64, Seed: 3, Pivots: pivot.RandomMS}, false},
	} {
		g, opt, decoupled := c.g, c.opt, c.decoupled
		t.Run(name, func(t *testing.T) {
			want, ok := budget.SteadyState[name]
			if !ok {
				t.Fatalf("no budget entry for %q", name)
			}
			ws := workspace.New()
			opt.Workspace = ws
			run := func() {
				if decoupled {
					decoupledPhases(g, opt)
					return
				}
				if _, _, err := ParHDE(g, opt); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the workspace
			allocs := testing.AllocsPerRun(20, run)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const reps = 20
			for i := 0; i < reps; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			bytesPerOp := (after.TotalAlloc - before.TotalAlloc) / reps
			t.Logf("%s: %.1f allocs/op, %d bytes/op (budget %.0f allocs, %d bytes)",
				name, allocs, bytesPerOp, want.AllocsPerOp, want.BytesPerOp)
			if allocs > want.AllocsPerOp {
				t.Errorf("steady state allocates %.1f objects/op, budget is %.0f — if the regression is intentional, raise perf/alloc_budget.json", allocs, want.AllocsPerOp)
			}
			if bytesPerOp > want.BytesPerOp {
				t.Errorf("steady state allocates %d bytes/op, budget is %d — if the regression is intentional, raise perf/alloc_budget.json", bytesPerOp, want.BytesPerOp)
			}
		})
	}
}

// decoupledPhases runs ParHDE's BFS and DOrtho phases one after the
// other through the workspace's distance matrix, as PHDE, PivotMDS and the
// benchmark's staged replay still do: every column into B, then DOrtho
// over B.
func decoupledPhases(g *graph.CSR, opt Options) {
	n, s, ws := g.NumV, opt.Subspace, opt.Workspace
	bud := parallel.FixedBudget(1)
	ws.Reshape(n, s, 2)
	b := ws.DistView(n, s)
	start := int32(splitmix(opt.Seed) % uint64(n))
	pivot.PhaseBudget(bud, g, b, start, opt.Pivots, bfs.Options{}, ws.Pivot, nil, nil)
	ws.Deg = g.WeightedDegreesIntoBudget(bud, ws.Deg)
	ortho.DOrthogonalizeBudget(bud, b, ws.Deg, ortho.MGS, ws.Ortho)
}

func benchmarkParHDE(b *testing.B, ws *workspace.Workspace) {
	g := gen.Grid2D(100, 100)
	opt := Options{Subspace: 10, Seed: 1, Workspace: ws}
	if _, _, err := ParHDE(g, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ParHDE(g, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParHDEFresh allocates every buffer per run (the pre-workspace
// behavior); compare its allocs/op against BenchmarkParHDEWorkspace.
func BenchmarkParHDEFresh(b *testing.B) { benchmarkParHDE(b, nil) }

// BenchmarkParHDEWorkspace reuses one warmed workspace across all runs —
// the steady state of a job-engine worker.
func BenchmarkParHDEWorkspace(b *testing.B) { benchmarkParHDE(b, workspace.New()) }
