package linalg

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/parallel"
)

// TestOneWorkerKernelsAllocateNothing: on one worker every tile and block
// kernel runs its body inline, so with pooled partials and arenas a call
// allocates nothing — at a size that spans several reduction tiles and is
// past the MinGrain floor, where a fan-out would split it.
func TestOneWorkerKernelsAllocateNothing(t *testing.T) {
	g := gen.Grid2D(120, 110)
	n := g.NumV
	tiles := parallel.ReduceBlocks(n)
	if tiles < 2 || n < 2*parallel.MinGrain {
		t.Fatalf("n = %d spans %d tiles; the test needs several tiles above 2·MinGrain", n, tiles)
	}
	const s, k = 6, 5 // Sᵀ columns; stored columns of the PackedCols store
	bud := parallel.FixedBudget(1)
	rng := rand.New(rand.NewSource(39))
	deg := g.WeightedDegrees()
	x, y, d, out := randVec(n, rng), randVec(n, rng), randVec(n, rng), make([]float64, n)
	ints, dmin := make([]int32, n), make([]int32, n)
	for i := range ints {
		ints[i] = int32(rng.Intn(100))
	}
	partials := make([]float64, tiles*max(s*s, k*k))
	idxs, vals := make([]int, tiles), make([]int32, tiles)
	a, b, c := NewDense(n, s), NewDense(n, s), NewDense(s, s)
	fillRand(a, rng)
	fillRand(b, rng)
	ycoef, proj := NewDense(s, 2), NewDense(n, 2)
	fillRand(ycoef, rng)
	arm := make([]float64, n*s)
	arena := &PackArena{}
	pc, app := &PackedCols{}, &PackedCols{}
	pc.Ensure(n, k+1)
	for j := 0; j <= k; j++ {
		pc.AppendScaledDDotBudget(bud, randVec(n, rng), nil, 1, partials)
	}
	app.Ensure(n, 1)
	coeffs, dots := randVec(k, rng), make([]float64, 0, k)
	z := NewDense(k, k)
	// TripleProd empties its store, so each call refills its own.
	tp := &PackedCols{}
	tripleProd := func() {
		tp.Ensure(n, k+1)
		for j := 0; j <= k; j++ {
			tp.AppendScaledDDotBudget(bud, x, nil, 1, partials)
		}
		TripleProdBudget(bud, g, deg, tp, 1, z, partials, arena)
	}

	kernels := []struct {
		name string
		run  func()
	}{
		{"DotBudget", func() { DotBudget(bud, x, y, partials) }},
		{"FillBudget", func() { FillBudget(bud, out, 1.5) }},
		{"ScaledCopyBudget", func() { ScaledCopyBudget(bud, out, x, 2) }},
		{"Int32ToFloat64Budget", func() { Int32ToFloat64Budget(bud, out, ints) }},
		{"WidenMinArgmaxBudget", func() { WidenMinArgmaxBudget(bud, out, dmin, ints, idxs, vals) }},
		{"MulSmallBudget", func() { MulSmallBudget(bud, a, ycoef, proj) }},
		{"MulSmallRowMajorBudget", func() { MulSmallRowMajorBudget(bud, arm, ycoef, proj) }},
		{"AtBPackedBudget", func() { AtBPackedBudget(bud, a, b, c, partials, arena) }},
		{"TripleProdBudget", tripleProd},
		{"LapMulVecBudget", func() { LapMulVecBudget(bud, g, deg, x, out) }},
		{"PackedCols.AppendScaledDDotBudget", func() {
			app.Ensure(n, 1)
			app.AppendScaledDDotBudget(bud, x, d, 0.5, partials)
		}},
		{"PackedCols.DDotPanelRangeBudget", func() { pc.DDotPanelRangeBudget(bud, 1, k+1, x, d, dots[:0], partials) }},
		{"PackedCols.SubtractScaledRangeBudget", func() { pc.SubtractScaledRangeBudget(bud, 1, k+1, out, coeffs) }},
		{"PackedCols.CopyColIntoBudget", func() { pc.CopyColIntoBudget(bud, out, 2) }},
	}
	for _, kn := range kernels {
		kn.run() // warm: sizes the arena and the busy times
		if allocs := testing.AllocsPerRun(5, kn.run); allocs != 0 {
			t.Errorf("%s: %v allocations per one-worker call over %d tiles, want 0", kn.name, allocs, tiles)
		}
	}
}

// TestMulSmallBudgetInvariance: the final projection is bitwise identical
// across worker budgets and between its column-major and row-major forms,
// which ParHDE (row-major srm) and PHDE and the warm path (column-major)
// project through. Odd n and p run the kernel's row-quad and column-pair
// tails.
func TestMulSmallBudgetInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	n, s := 3*parallel.MinGrain+5, 7
	a := NewDense(n, s)
	fillRand(a, rng)
	arm := make([]float64, n*s)
	for i := 0; i < n; i++ {
		for j := 0; j < s; j++ {
			arm[i*s+j] = a.At(i, j)
		}
	}
	withProcs(4, func() {
		for _, p := range []int{1, 2, 3} {
			y := NewDense(s, p)
			fillRand(y, rng)
			ref := MulSmallBudget(parallel.FixedBudget(1), a, y, nil)
			for _, w := range []int{1, 2, 4} {
				bud := parallel.FixedBudget(w)
				tag := fmt.Sprintf("p=%d workers=%d", p, w)
				assertDenseEqual(t, tag+" column-major", MulSmallBudget(bud, a, y, nil), ref)
				assertDenseEqual(t, tag+" row-major", MulSmallRowMajorBudget(bud, arm, y, nil), ref)
			}
		}
	})
}
