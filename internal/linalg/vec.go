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
// across any worker budget. A parallel.Budget only controls how many
// goroutines the tiles fan out across: every kernel's body is written
// once and one worker runs it inline.
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

// dotBlocks computes xᵀy (d == nil) or xᵀdiag(d)y over the fixed tiling,
// one vecArgs.dot per tile, added in tile order on every budget.
func dotBlocks(bud parallel.Budget, x, d, y, partials []float64) float64 {
	return parallel.SumTiles(bud.Workers(), len(x), vecArgs{x: x, y: y, d: d}, partials, vecArgs.dot)
}

// vecArgs is the operands of one Level-1 kernel call. Its methods are the
// kernels' tile and block bodies; the walks take it by value, so a
// one-worker call allocates nothing.
type vecArgs struct {
	x, y, d []float64
	ints    []int32
	a       float64
}

// dot is one tile of dotBlocks: a straight accumulation over rows
// [lo, hi).
func (v vecArgs) dot(_, lo, hi int) float64 {
	x, y, d := v.x, v.y, v.d
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

// Axpy computes y ← y + a·x.
func Axpy(a float64, x, y []float64) {
	checkLen(len(x), len(y))
	parallel.Blocks(parallel.Live().BlockWorkers(len(x)), len(x), vecArgs{x: x, y: y, a: a}, vecArgs.axpy)
}

func (v vecArgs) axpy(_, lo, hi int) {
	x, y, a := v.x[lo:hi], v.y[lo:hi], v.a
	for i := range x {
		y[i] += a * x[i]
	}
}

// Scale computes x ← a·x.
func Scale(a float64, x []float64) {
	parallel.Blocks(parallel.Live().BlockWorkers(len(x)), len(x), vecArgs{x: x, a: a}, vecArgs.scale)
}

func (v vecArgs) scale(_, lo, hi int) {
	x, a := v.x[lo:hi], v.a
	for i := range x {
		x[i] *= a
	}
}

// Fill sets every element of x to a.
func Fill(x []float64, a float64) {
	FillBudget(parallel.Live(), x, a)
}

// FillBudget is Fill under an explicit worker budget.
func FillBudget(bud parallel.Budget, x []float64, a float64) {
	parallel.Blocks(bud.BlockWorkers(len(x)), len(x), vecArgs{x: x, a: a}, vecArgs.fill)
}

func (v vecArgs) fill(_, lo, hi int) {
	x, a := v.x[lo:hi], v.a
	for i := range x {
		x[i] = a
	}
}

// CopyVec copies src into dst.
func CopyVec(dst, src []float64) {
	checkLen(len(dst), len(src))
	parallel.Blocks(parallel.Live().BlockWorkers(len(src)), len(src), vecArgs{x: src, y: dst}, vecArgs.copy)
}

func (v vecArgs) copy(_, lo, hi int) {
	copy(v.y[lo:hi], v.x[lo:hi])
}

// Int32ToFloat64Budget widens an int32 hop-distance vector into a float64
// column under an explicit worker budget.
func Int32ToFloat64Budget(bud parallel.Budget, dst []float64, src []int32) {
	checkLen(len(dst), len(src))
	parallel.Blocks(bud.BlockWorkers(len(src)), len(src), vecArgs{y: dst, ints: src}, vecArgs.widen)
}

func (v vecArgs) widen(_, lo, hi int) {
	src, dst := v.ints[lo:hi], v.y[lo:hi]
	for i := range src {
		dst[i] = float64(src[i])
	}
}

func checkLen(a, b int) {
	if a != b {
		panic("linalg: dimension mismatch")
	}
}
