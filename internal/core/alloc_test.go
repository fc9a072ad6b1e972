package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
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
	pivot.Stream(context.Background(), bud, g, s, start, opt.Pivots, bfs.Options{}, ws.Pivot, pivot.Fill(b), &ws.Clock)
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

// TestColdLayoutHoldsSOnce: a cold layout's first run through a new
// workspace allocates S (n·s floats) in one place, the DOrtho store, which
// the TripleProd phase rewrites in place as the row-major S the walk and
// the projection read. The bound is two n·s buffers: the store takes one,
// and the transpose's tile buffer and every O(n) vector fit in the other.
// A second row-major copy of S, an unread n·s DOrtho output matrix, or a
// P panel for the benchmark's staged replay takes the run past it
// (≈ 4·n·s·8 B before the store became S, ≈ 2.4·n·s·8 B while ParHDE
// sized P).
func TestColdLayoutHoldsSOnce(t *testing.T) {
	g := gen.Grid2D(130, 130)
	const s = 64
	n := g.NumV
	if tiles := parallel.ReduceBlocks(n); tiles < 4 {
		t.Fatalf("n = %d spans %d tiles; the test needs at least 4", n, tiles)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ws := workspace.New()
	if _, _, err := ParHDE(g, Options{Subspace: s, Workers: 1, Workspace: ws}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got, bound := after.TotalAlloc-before.TotalAlloc, uint64(2*n*s*8)
	t.Logf("first cold layout allocated %.1f MB; n·s·8 = %.1f MB, bound %.1f MB",
		float64(got)/1e6, float64(n*s*8)/1e6, float64(bound)/1e6)
	if got > bound {
		t.Errorf("first cold layout allocated %d B, want at most 2·n·s·8 = %d B", got, bound)
	}
}

// TestParHDELeavesPUnsized: P is the benchmark's staged-replay panel, which
// ParHDE never writes, so neither a cold run nor a warm one through the
// same workspace sizes it; the buffers ParHDE does read are sized.
func TestParHDELeavesPUnsized(t *testing.T) {
	g := gen.Grid2D(30, 30)
	ws := workspace.New()
	opt := Options{Subspace: 10, Seed: 1, Workspace: ws, Basis: NewBasis(g, Options{Subspace: 10, Seed: 1})}
	for _, h := range []*graph.CSR{g, gen.Grid2D(30, 30)} {
		if _, _, err := ParHDE(h, opt); err != nil {
			t.Fatal(err)
		}
	}
	if cap(ws.P) != 0 {
		t.Errorf("ParHDE sized P to %d floats", cap(ws.P))
	}
	if len(ws.Coords) != 2*g.NumV || len(ws.Z) == 0 || ws.Ortho == nil {
		t.Errorf("ParHDE left its own buffers unsized: coords %d, Z %d, ortho %v", len(ws.Coords), len(ws.Z), ws.Ortho != nil)
	}
}

// TestSmallGraphParHDEAllocBytes bounds what a workspace-less ParHDE
// allocates on graphs of at most 32 vertices, the shape of a zoom's 2-hop
// subgraph: scratch follows the rows that exist. TripleProd's arena slots
// hold three chunks of min(PackRows, n) rows, not three 512-row panels,
// which alone were ≈ 100 KB per run here (≈ 17–23 KB per run is
// measured now).
func TestSmallGraphParHDEAllocBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const maxBytes = 48 << 10
	for _, dims := range [][2]int{{5, 6}, {4, 8}, {2, 16}} {
		g := gen.Grid2D(dims[0], dims[1])
		run := func() {
			if _, _, err := ParHDE(g, Options{Subspace: DefaultSubspace, Seed: 1}); err != nil {
				t.Fatal(err)
			}
		}
		run()
		// The least of a few rounds is the run's own cost: TotalAlloc
		// also counts what other goroutines allocate meanwhile.
		const reps = 20
		bytesPer := uint64(math.MaxUint64)
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < reps; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			bytesPer = min(bytesPer, (after.TotalAlloc-before.TotalAlloc)/reps)
		}
		t.Logf("Grid(%d×%d): %d bytes/run", dims[0], dims[1], bytesPer)
		if bytesPer > maxBytes {
			t.Errorf("Grid(%d×%d), %d vertices: ParHDE allocates %d bytes/run, want at most %d", dims[0], dims[1], g.NumV, bytesPer, maxBytes)
		}
	}
}
