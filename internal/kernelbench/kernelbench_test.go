//go:build perf

// Package kernelbench is the perf-tagged kernel-regression harness: it
// benchmarks the production kernels against naive references kept in this
// package (oracles_test.go) and gates CI on the speedup ratios recorded in
// perf/kernel_budget.json.
// Ratios (blocked time vs reference time on the same machine, same run)
// are machine-portable in a way absolute ns/op numbers are not, so the
// gate travels between laptops and CI runners without re-baselining.
// Build-tagged `perf` to keep the tier-1 `go test ./...` fast and
// non-flaky; CI runs it as a dedicated gate step:
//
//	go test -tags perf -count=1 -v ./internal/kernelbench/
package kernelbench

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/ortho"
	"repro/internal/parallel"
)

// kernelBudget mirrors perf/kernel_budget.json.
type kernelBudget struct {
	Comment string  `json:"comment"`
	Margin  float64 `json:"margin"`
	Kernels map[string]struct {
		BaselineSpeedup float64 `json:"baseline_speedup"`
	} `json:"kernels"`
}

func loadBudget(t *testing.T) kernelBudget {
	t.Helper()
	b, err := os.ReadFile("../../perf/kernel_budget.json")
	if err != nil {
		t.Fatalf("reading kernel budget: %v", err)
	}
	var budget kernelBudget
	if err := json.Unmarshal(b, &budget); err != nil {
		t.Fatalf("decoding kernel budget: %v", err)
	}
	if budget.Margin <= 0 || budget.Margin >= 1 {
		t.Fatalf("kernel budget margin %v out of (0,1)", budget.Margin)
	}
	return budget
}

// speedup times a kernel pair with their repetitions interleaved — fast,
// ref, fast, ref, … — so both see the same host state (frequency, cache
// and neighbour load drift between back-to-back blocks), and returns the
// ratio of ref's fastest repetition to fast's: the minimum-of-repetitions
// estimator, robust to scheduling noise, taken per kernel.
func speedup(reps int, fast, ref func()) float64 {
	bestFast, bestRef := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		bestFast = min(bestFast, timeOf(fast))
		bestRef = min(bestRef, timeOf(ref))
	}
	return float64(bestRef) / float64(bestFast)
}

// timeOf returns the wall time of one call of f.
func timeOf(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

func randDense(n, s int, seed int64) *linalg.Dense {
	r := rand.New(rand.NewSource(seed))
	m := linalg.NewDense(n, s)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

// TestKernelBudgetGate measures each optimized kernel against its naive
// reference and fails when the ratio falls below baseline·margin (a >15%
// regression at the default margin 0.85). The ratio is a speedup, except
// for ls_rowpacked_vs_spmv and bfs_diropt_vs_topdown_road, whose true
// time ratios sit inside the host's noise of their floors: those hold the
// reference's work over the kernel's, counted by the kernels. GOMAXPROCS
// is pinned to 1 so the ratio reflects per-core kernel quality, not the
// parallel scheduler.
func TestKernelBudgetGate(t *testing.T) {
	budget := loadBudget(t)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	check := func(name string, ratio float64) {
		t.Helper()
		want, ok := budget.Kernels[name]
		if !ok {
			t.Fatalf("no kernel budget entry for %q", name)
		}
		floor := want.BaselineSpeedup * budget.Margin
		t.Logf("%s: %.2fx (baseline %.2fx, floor %.2fx)", name, ratio, want.BaselineSpeedup, floor)
		if ratio < floor {
			t.Errorf("%s: %.2fx below floor %.2fx — if the regression is intentional, lower perf/kernel_budget.json", name, ratio, floor)
		}
	}

	const reps = 15

	// Packed 4×2 AtB vs the unblocked triple loop (TripleProd's Z = SᵀP).
	{
		n, s := 1<<16, 48
		a, b := randDense(n, s, 1), randDense(n, s, 2)
		c := linalg.NewDense(s, s)
		partials := make([]float64, parallel.ReduceBlocks(n)*s*s)
		var arena linalg.PackArena
		check("atb_blocked_vs_naive", speedup(reps,
			func() { linalg.AtBPackedBudget(parallel.Live(), a, b, c, partials, &arena) },
			func() { naiveAtB(a, b, c) }))
	}

	// Panel-blocked Gram-Schmidt vs the unblocked Level-1 sweep (DOrtho).
	{
		n, s := 1<<17, 48
		b := randDense(n, s, 3)
		d := make([]float64, n)
		r := rand.New(rand.NewSource(4))
		for i := range d {
			d[i] = 1 + float64(r.Intn(20))
		}
		sc := ortho.NewScratch(n, s)
		l1 := newLevel1Scratch(n, s)
		check("panel_mgs_vs_level1", speedup(reps,
			func() { ortho.DOrthogonalizeBudget(parallel.Live(), b, d, ortho.MGS, sc) },
			func() { l1.sweep(b, d) }))
	}

	// Row-packed L·S vs one SpMV per column (TripleProd's P = L·S) on the
	// skewed-degree kron shape at the kron_k20 width: the s columns advance
	// in register accumulators over one adjacency walk per column chunk.
	// The pair's true time ratio sits inside this host's noise of its
	// floor, so the gate holds the work instead: the random-access
	// neighbour loads of s SpMV passes (one per adjacency entry per column)
	// over the ones the row-packed kernel counts.
	{
		g := gen.Kron(16, 16, 102)
		deg := g.WeightedDegrees()
		s := randDense(g.NumV, 20, 6)
		var arena linalg.PackArena
		linalg.LapMulDenseTiledPackedBudget(parallel.FixedBudget(1), g, deg, s, nil, nil, &arena)
		check("ls_rowpacked_vs_spmv", float64(len(g.Adj)*s.Cols)/float64(arena.Gathers()))
	}

	// One-walk TripleProd vs the two passes it replaces — unpack S from the
	// DOrtho store, L·S into an n×s P, then SᵀP — on the road shape of
	// road_k10: the walk turns the store into S row-major in place and
	// consumes each chunk of P while it is in cache. The walk empties the
	// store, so its side refills it first.
	{
		g, deg, s, pc := tripleProdFixture()
		p, z := linalg.NewDense(g.NumV, s.Cols), linalg.NewDense(s.Cols, s.Cols)
		srm := make([]float64, g.NumV*s.Cols)
		partials := make([]float64, parallel.ReduceBlocks(g.NumV)*s.Cols*s.Cols)
		var arena linalg.PackArena
		bud := parallel.FixedBudget(1)
		check("tripleprod_fused_vs_twopass", speedup(reps,
			func() {
				fillStore(pc, s)
				linalg.TripleProdBudget(bud, g, deg, pc, 0, z, partials, &arena)
			},
			func() {
				for j := 0; j < s.Cols; j++ {
					pc.CopyColIntoBudget(bud, s.Col(j), j)
				}
				linalg.LapMulDenseTiledPackedBudget(bud, g, deg, s, p, srm, &arena)
				linalg.AtBPackedBudget(bud, s, p, z, partials, &arena)
			}))
	}

	// Fused widen+min+argmax vs the three-pass sequence (BFS bookkeeping).
	{
		n := 1 << 20
		src := make([]int32, n)
		dmin := make([]int32, n)
		dst := make([]float64, n)
		r := rand.New(rand.NewSource(5))
		for i := range src {
			src[i] = int32(r.Intn(1 << 20))
		}
		for i := range dmin {
			dmin[i] = int32(1) << 30
		}
		// Both kernels run the same min pass over dmin, which holds src
		// from the first call on.
		check("fused_widen_vs_unfused", speedup(reps,
			func() { linalg.WidenMinArgmaxBudget(parallel.Live(), dst, dmin, src, nil, nil) },
			func() { unfusedWidenMinArgmax(dst, dmin, src) }))
	}

	// Single-source Runner vs itself pinned top-down, 10 strided sources.
	// On a road network the direction rule must cost nothing (a ratio well
	// below 1 means bottom-up round trips are back: the two-term rule
	// measured 0.40); on kron it must keep the bottom-up win. The road
	// pair's true time ratio is ≈ 1, inside this host's noise of its floor,
	// so it is held by the work the two runners count instead: the
	// adjacency entries they scan plus the n distance slots every
	// bottom-up step sweeps (the cost goBottomUp prices; scanned edges
	// alone miss it). Kron's margin is wide, so it stays on the clock.
	// dirOpt returns the 10 traversals of g by the Runner and by its
	// top-down twin, each returning that work.
	dirOpt := func(g *graph.CSR) (diropt, topDown func() int64) {
		dist := make([]int32, g.NumV)
		sc := bfs.NewScratch(g.NumV, 1) // both runners traverse over the same memory
		run := func(opt bfs.Options) func() int64 {
			r := bfs.NewRunner(g, opt, sc, parallel.FixedBudget(1))
			return func() (work int64) {
				for i := 0; i < 10; i++ {
					st := r.Distances(int32(i*(g.NumV/10)), dist)
					work += st.ScannedEdges + int64(st.BottomUpSteps*g.NumV)
				}
				return work
			}
		}
		return run(bfs.Options{}), run(bfs.Options{ForceTopDown: true})
	}
	road, roadTopDown := dirOpt(gen.Road(256, 256, 1))
	check("bfs_diropt_vs_topdown_road", float64(roadTopDown())/float64(road()))
	kron, kronTopDown := dirOpt(gen.Kron(16, 16, 102))
	check("bfs_diropt_vs_topdown_kron", speedup(reps, func() { kron() }, func() { kronTopDown() }))
}

// BenchmarkAtBNaive / BenchmarkAtBPacked are the raw microbenchmarks
// behind the gate's first ratio; run with
// go test -tags perf -bench AtB ./internal/kernelbench/.
func BenchmarkAtBNaive(b *testing.B) {
	n, s := 1<<16, 48
	x, y := randDense(n, s, 1), randDense(n, s, 2)
	c := linalg.NewDense(s, s)
	b.SetBytes(int64(2 * n * s * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveAtB(x, y, c)
	}
}

func BenchmarkAtBPacked(b *testing.B) {
	n, s := 1<<16, 48
	x, y := randDense(n, s, 1), randDense(n, s, 2)
	c := linalg.NewDense(s, s)
	partials := make([]float64, parallel.ReduceBlocks(n)*s*s)
	var arena linalg.PackArena
	b.SetBytes(int64(2 * n * s * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.AtBPackedBudget(parallel.Live(), x, y, c, partials, &arena)
	}
}

// dOrthoFixture builds the DOrtho bench inputs.
func dOrthoFixture() (*linalg.Dense, []float64) {
	n, s := 1<<15, 48
	m := randDense(n, s, 3)
	d := make([]float64, n)
	r := rand.New(rand.NewSource(4))
	for i := range d {
		d[i] = 1 + float64(r.Intn(20))
	}
	return m, d
}

func benchmarkDOrtho(b *testing.B, method ortho.Method) {
	m, d := dOrthoFixture()
	sc := ortho.NewScratch(m.Rows, m.Cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ortho.DOrthogonalizeBudget(parallel.Live(), m, d, method, sc)
	}
}

// BenchmarkPanelMGS is the default MGS path, BenchmarkCGSLevel2 the
// Table 7 alternative, BenchmarkLevel1MGS the unblocked reference sweep.
func BenchmarkPanelMGS(b *testing.B)  { benchmarkDOrtho(b, ortho.MGS) }
func BenchmarkCGSLevel2(b *testing.B) { benchmarkDOrtho(b, ortho.CGS) }

func BenchmarkLevel1MGS(b *testing.B) {
	m, d := dOrthoFixture()
	l1 := newLevel1Scratch(m.Rows, m.Cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l1.sweep(m, d)
	}
}

func BenchmarkWidenMinArgmaxFused(b *testing.B) {
	n := 1 << 20
	src := make([]int32, n)
	dmin := make([]int32, n)
	dst := make([]float64, n)
	r := rand.New(rand.NewSource(5))
	for i := range src {
		src[i] = int32(r.Intn(1 << 20))
	}
	b.SetBytes(int64(n * (4 + 4 + 8)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.WidenMinArgmaxBudget(parallel.Live(), dst, dmin, src, nil, nil)
	}
}

func BenchmarkWidenMinArgmaxUnfused(b *testing.B) {
	n := 1 << 20
	src := make([]int32, n)
	dmin := make([]int32, n)
	dst := make([]float64, n)
	r := rand.New(rand.NewSource(5))
	for i := range src {
		src[i] = int32(r.Intn(1 << 20))
	}
	b.SetBytes(int64(n * (4 + 4 + 8)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unfusedWidenMinArgmax(dst, dmin, src)
	}
}

// tripleProdFixture builds the tripleprod_fused_vs_twopass inputs: the
// road graph, S (n×10) and the same columns in a PackedCols store.
func tripleProdFixture() (*graph.CSR, []float64, *linalg.Dense, *linalg.PackedCols) {
	g := gen.Road(256, 256, 1)
	s := randDense(g.NumV, 10, 7)
	pc := &linalg.PackedCols{}
	fillStore(pc, s)
	return g, g.WeightedDegrees(), s, pc
}

// fillStore (re)stores s's columns in pc, as the DOrtho sweep keeps them.
func fillStore(pc *linalg.PackedCols, s *linalg.Dense) {
	pc.Ensure(s.Rows, s.Cols)
	for j := 0; j < s.Cols; j++ {
		pc.AppendScaledDDotBudget(parallel.FixedBudget(1), s.Col(j), nil, 1, nil)
	}
}

// BenchmarkTripleProdFused / BenchmarkTripleProdTwoPass are the raw
// microbenchmarks behind the tripleprod_fused_vs_twopass ratio; run with
// go test -tags perf -bench TripleProd ./internal/kernelbench/.
func BenchmarkTripleProdFused(b *testing.B) {
	g, deg, s, pc := tripleProdFixture()
	z := linalg.NewDense(s.Cols, s.Cols)
	var arena linalg.PackArena
	for i := 0; i < b.N; i++ {
		fillStore(pc, s)
		linalg.TripleProdBudget(parallel.FixedBudget(1), g, deg, pc, 0, z, nil, &arena)
	}
}

func BenchmarkTripleProdTwoPass(b *testing.B) {
	g, deg, s, pc := tripleProdFixture()
	bud := parallel.FixedBudget(1)
	p, z := linalg.NewDense(g.NumV, s.Cols), linalg.NewDense(s.Cols, s.Cols)
	srm := make([]float64, g.NumV*s.Cols)
	var arena linalg.PackArena
	for i := 0; i < b.N; i++ {
		for j := 0; j < s.Cols; j++ {
			pc.CopyColIntoBudget(bud, s.Col(j), j)
		}
		linalg.LapMulDenseTiledPackedBudget(bud, g, deg, s, p, srm, &arena)
		linalg.AtBPackedBudget(bud, s, p, z, nil, &arena)
	}
}
