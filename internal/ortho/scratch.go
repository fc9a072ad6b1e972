package ortho

import (
	"repro/internal/linalg"
)

// Scratch owns the DOrtho phase's reusable storage: the packed
// kept-column store (the constant direction plus up to s survivors), the
// working vector, the output matrix backing Result.S, and the
// reduction-partials buffers every inner product of the sweep reuses
// instead of allocating per dot product. One Scratch serves both
// DOrthogonalizeBudget and NewIncremental; a pooled workspace keeps one
// per (n, s) shape.
//
// Results produced through a Scratch alias its storage (Result.S, DNorms,
// Kept), so they are valid only until the Scratch's next use.
type Scratch struct {
	n, s int
	// packed is the tile-major kept-column store. Each sweep shapes it, so
	// a scratch that never runs a sweep never pays for it.
	packed   linalg.PackedCols
	work     []float64
	partials []float64 // reduction partials shared by every norm in a sweep
	// panelPartials is the per-tile arena of the fused panel multi-dot:
	// ReduceBlocks(n) tiles × up to s+1 columns (CGS projects against
	// every kept column at once).
	panelPartials []float64
	coeffs        []float64 // panel/CGS coefficient vector
	sOut          *linalg.Dense
	dNorms        []float64
	keptIdx       []int
}

// NewScratch returns orthogonalization scratch for up to s length-n
// input columns.
func NewScratch(n, s int) *Scratch {
	sc := &Scratch{}
	sc.Ensure(n, s)
	return sc
}

// Ensure grows the scratch to cover (n, s); sufficient buffers are kept,
// so same-shape reuse touches no allocator.
func (sc *Scratch) Ensure(n, s int) {
	if sc.n == n && sc.s >= s {
		return
	}
	if cap(sc.work) < n {
		sc.work = make([]float64, n)
	}
	sc.work = sc.work[:n]
	if p := linalg.ReduceBlocks(n); cap(sc.partials) < p {
		sc.partials = make([]float64, p)
	}
	if p := linalg.ReduceBlocks(n) * (s + 1); cap(sc.panelPartials) < p {
		sc.panelPartials = make([]float64, p)
	}
	if cap(sc.coeffs) < s+1 {
		sc.coeffs = make([]float64, 0, s+1)
	}
	if sc.sOut == nil || sc.sOut.Rows != n || sc.sOut.Cols < s {
		sc.sOut = linalg.NewDense(n, s)
	}
	if cap(sc.dNorms) < s+1 {
		sc.dNorms = make([]float64, 0, s+1)
	}
	if cap(sc.keptIdx) < s {
		sc.keptIdx = make([]int, 0, s)
	}
	sc.n, sc.s = n, s
}
