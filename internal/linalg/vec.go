// Package linalg provides the parallel vector and matrix kernels behind
// ParHDE's DOrtho and TripleProd phases: Level-1 style vector operations,
// a column-major dense matrix, a parallel small-dimension GEMM, and the
// fused Laplacian × dense-matrix product that never materializes the
// Laplacian (the paper's key memory optimization over prior work).
//
// Every reduction in the package runs over parallel's fixed tile grid of
// the row dimension (parallel.TileRows rows per tile, see
// parallel.ReduceBlocks) with the per-tile partial sums combined serially
// in ascending tile order, so a reduction's result is bitwise identical
// across any worker budget, including the serial path. A parallel.Budget
// only controls how many goroutines the tiles fan out across.
package linalg

import "repro/internal/parallel"

// Dot returns xᵀy. The summation runs over the fixed row tiling with
// per-tile partials combined serially in tile order, so the result is
// bitwise identical for every worker budget.
func Dot(x, y []float64) float64 {
	checkLen(len(x), len(y))
	return dotBlocks(parallel.Live(), x, nil, y, nil)
}

// DotBudget is Dot under an explicit worker budget and with a
// caller-provided partials buffer (capacity ≥ parallel.ReduceBlocks(n),
// grown when short), so a steady-state caller — the Gram-Schmidt sweep
// reusing one buffer across all its norms — allocates nothing. The tiling
// and serial combine order are Dot's, so the two produce bitwise-identical
// sums.
func DotBudget(bud parallel.Budget, x, y, partials []float64) float64 {
	checkLen(len(x), len(y))
	return dotBlocks(bud, x, nil, y, partials)
}

// DDot returns xᵀDy where D is the diagonal matrix diag(d) — the D-inner
// product used by degree-normalized orthogonalization.
func DDot(x, d, y []float64) float64 {
	checkLen(len(x), len(y))
	checkLen(len(x), len(d))
	return dotBlocks(parallel.Live(), x, d, y, nil)
}

// dotBlocks computes xᵀy (d == nil) or xᵀdiag(d)y over the fixed tiling.
// The serial path streams the per-tile sums into one accumulator in tile
// order — the same additions, in the same order, as the parallel arena +
// combine path — so all budgets produce identical bits, and the serial
// path needs neither arena nor closure (allocation-free).
func dotBlocks(bud parallel.Budget, x, d, y, partials []float64) float64 {
	n := len(x)
	tiles := parallel.ReduceBlocks(n)
	if tiles == 1 {
		return dotRange(x, d, y, 0, n)
	}
	if bud.Workers() <= 1 {
		var s float64
		for t := 0; t < tiles; t++ {
			s += dotRange(x, d, y, t*n/tiles, (t+1)*n/tiles)
		}
		return s
	}
	// buf is written only before the goroutines capture it: a captured
	// variable assigned after capture would be heap-boxed at function
	// entry, charging even the serial early-return path one allocation.
	var buf []float64
	if cap(partials) >= tiles {
		buf = partials[:tiles]
	} else {
		buf = make([]float64, tiles)
	}
	bud.ForTiles(n, tiles, func(t, lo, hi int) {
		buf[t] = dotRange(x, d, y, lo, hi)
	})
	var s float64
	for _, v := range buf {
		s += v
	}
	return s
}

// dotRange is one tile of dotBlocks: a straight accumulation over rows
// [lo, hi).
func dotRange(x, d, y []float64, lo, hi int) float64 {
	var s float64
	if d == nil {
		for i := lo; i < hi; i++ {
			s += x[i] * y[i]
		}
		return s
	}
	for i := lo; i < hi; i++ {
		s += x[i] * d[i] * y[i]
	}
	return s
}

// Axpy computes y ← y + a·x. Like every Level-1 kernel here, the serial
// branch is written out so small or single-worker calls construct no
// escaping closure and allocate nothing.
func Axpy(a float64, x, y []float64) {
	checkLen(len(x), len(y))
	bud := parallel.Live()
	if bud.Serial(len(x)) {
		for i := range x {
			y[i] += a * x[i]
		}
		return
	}
	bud.ForBlock(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] += a * x[i]
		}
	})
}

// Scale computes x ← a·x.
func Scale(a float64, x []float64) {
	bud := parallel.Live()
	if bud.Serial(len(x)) {
		for i := range x {
			x[i] *= a
		}
		return
	}
	bud.ForBlock(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] *= a
		}
	})
}

// Fill sets every element of x to a.
func Fill(x []float64, a float64) {
	FillBudget(parallel.Live(), x, a)
}

// FillBudget is Fill under an explicit worker budget.
func FillBudget(bud parallel.Budget, x []float64, a float64) {
	if bud.Serial(len(x)) {
		for i := range x {
			x[i] = a
		}
		return
	}
	bud.ForBlock(len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] = a
		}
	})
}

// CopyVec copies src into dst.
func CopyVec(dst, src []float64) {
	checkLen(len(dst), len(src))
	bud := parallel.Live()
	if bud.Serial(len(src)) {
		copy(dst, src)
		return
	}
	bud.ForBlock(len(src), func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// Int32ToFloat64Budget widens an int32 hop-distance vector into a float64
// column under an explicit worker budget.
func Int32ToFloat64Budget(bud parallel.Budget, dst []float64, src []int32) {
	checkLen(len(dst), len(src))
	if bud.Serial(len(src)) {
		for i := range src {
			dst[i] = float64(src[i])
		}
		return
	}
	bud.ForBlock(len(src), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = float64(src[i])
		}
	})
}

func checkLen(a, b int) {
	if a != b {
		panic("linalg: dimension mismatch")
	}
}
