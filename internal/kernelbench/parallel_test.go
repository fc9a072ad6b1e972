//go:build perf

package kernelbench

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/linalg"
	"repro/internal/ortho"
	"repro/internal/parallel"
)

// TestParallelEfficiencyGate measures the 2-worker speedup of each
// parallel kernel path over its 1-worker (serial) path on the same
// machine in the same run, and gates against the *_parallel_2w and
// msbfs_tiled_2w entries of perf/kernel_budget.json. Ratios, not absolute
// times, so the gate travels across machines. It runs at 2 workers on any
// host with at least 2 cores (the only worker count whose floors were ever
// measured); a single-core host skips — loudly, with the reason in the
// test log.
func TestParallelEfficiencyGate(t *testing.T) {
	const workers, suffix = 2, "_2w"
	if runtime.NumCPU() < workers {
		t.Skipf("SKIPPED (not silently): parallel-efficiency gate needs >= 2 cores, have %d — a single core cannot exhibit any parallel speedup; the *_2w floors are enforced on multicore CI runners", runtime.NumCPU())
	}
	budget := loadBudget(t)
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)

	check := func(name string, speedup float64) {
		t.Helper()
		name += suffix
		want, ok := budget.Kernels[name]
		if !ok {
			t.Fatalf("no kernel budget entry for %q", name)
		}
		floor := want.BaselineSpeedup * budget.Margin
		t.Logf("%s: %d-worker speedup %.2fx (baseline %.2fx, floor %.2fx)", name, workers, speedup, want.BaselineSpeedup, floor)
		if speedup < floor {
			t.Errorf("%s: speedup %.2fx below floor %.2fx — if the regression is intentional, lower perf/kernel_budget.json", name, speedup, floor)
		}
	}

	const reps = 5
	serial := parallel.FixedBudget(1)
	par := parallel.FixedBudget(workers)

	// Parallel packed AtB: per-worker tile ranges running out of packed
	// arena slots vs the serial sweep.
	{
		n, s := 1<<20, 48
		a, b := randDense(n, s, 11), randDense(n, s, 12)
		partials := make([]float64, linalg.ReduceBlocks(n)*s*s)
		var arena linalg.PackArena
		t1 := minTime(reps, func() { linalg.AtBPackedBudget(serial, a, b, nil, partials, &arena) })
		tp := minTime(reps, func() { linalg.AtBPackedBudget(par, a, b, nil, partials, &arena) })
		check("atb_parallel", float64(t1)/float64(tp))
	}

	// Parallel panel MGS: packed fan-out scaling.
	{
		n, s := 1<<19, 48
		d := make([]float64, n)
		r := rand.New(rand.NewSource(13))
		for i := range d {
			d[i] = 1 + float64(r.Intn(20))
		}
		sc := ortho.NewScratch(n, s)
		b1 := randDense(n, s, 14)
		t1 := minTime(reps, func() { ortho.DOrthogonalizeBudget(serial, cloneDense(b1), d, ortho.MGS, sc) })
		tp := minTime(reps, func() { ortho.DOrthogonalizeBudget(par, cloneDense(b1), d, ortho.MGS, sc) })
		check("panel_mgs_parallel", float64(t1)/float64(tp))
	}

	// Parallel fused widen/min/argmax with the fixed-tile reduction.
	{
		n := 1 << 22
		src := make([]int32, n)
		dmin := make([]int32, n)
		dst := make([]float64, n)
		r := rand.New(rand.NewSource(15))
		for i := range src {
			src[i] = int32(r.Intn(1 << 20))
		}
		tiles := linalg.ReduceBlocks(n)
		idxs, vals := make([]int, tiles), make([]int32, tiles)
		reset := func() {
			for i := range dmin {
				dmin[i] = int32(1) << 30
			}
		}
		reset()
		t1 := minTime(reps, func() { linalg.WidenMinArgmaxBudget(serial, dst, dmin, src, idxs, vals) })
		reset()
		tp := minTime(reps, func() { linalg.WidenMinArgmaxBudget(par, dst, dmin, src, idxs, vals) })
		check("fused_widen_parallel", float64(t1)/float64(tp))
	}

	// Tiled direction-optimizing MSBFS: the blocked bitmap passes must
	// scale when workers own disjoint vertex-range blocks (bottom-up
	// writes are CAS-free precisely because of that ownership).
	{
		g, sources, rows, sc := msbfsFixture(18, 16)
		t1 := minTime(reps, func() { bfs.MSBFS(serial, g, sources, rows, sc, bfs.Options{}) })
		tp := minTime(reps, func() { bfs.MSBFS(par, g, sources, rows, sc, bfs.Options{}) })
		check("msbfs_tiled", float64(t1)/float64(tp))
	}

	// Whole-layout scaling on the paper's headline graph shape: kron 2^18
	// at `workers` vs 1.
	{
		g := gen.Kron(18, 16, 102)
		run := func(p int) func() {
			opt := core.Options{Subspace: 10, Seed: 42, Workers: p}
			return func() {
				if _, _, err := core.ParHDE(g, opt); err != nil {
					t.Fatal(err)
				}
			}
		}
		t1 := minTime(3, run(1))
		tp := minTime(3, run(workers))
		check("layout_parallel", float64(t1)/float64(tp))
	}
}

// cloneDense copies m so repeated in-place orthogonalizations see the
// same input.
func cloneDense(m *linalg.Dense) *linalg.Dense {
	c := linalg.NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}
