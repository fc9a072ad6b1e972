//go:build perf

package kernelbench

import (
	"math"

	"repro/internal/linalg"
)

// Naive reference kernels the gate ratios are measured against. They are
// the formulations the production kernels replaced, written out as plain
// serial loops so the baseline does not move when the production code
// does.

// naiveAtB is the unblocked C = AᵀB: one full pass over a column pair per
// output element, so A is streamed t times and B s times.
func naiveAtB(a, b, c *linalg.Dense) {
	for j := 0; j < b.Cols; j++ {
		bj := b.Col(j)
		for i := 0; i < a.Cols; i++ {
			ai := a.Col(i)
			var sum float64
			for r := range ai {
				sum += ai[r] * bj[r]
			}
			c.Set(i, j, sum)
		}
	}
}

// unfusedWidenMinArgmax is the three-pass BFS bookkeeping the fused
// kernel replaced: widen, min-update, argmax.
func unfusedWidenMinArgmax(dst []float64, dmin, src []int32) int {
	for i, v := range src {
		dst[i] = float64(v)
	}
	for i, v := range src {
		if v < dmin[i] {
			dmin[i] = v
		}
	}
	best := 0
	for i, v := range dmin {
		if v > dmin[best] {
			best = i
		}
	}
	return best
}

// level1Scratch holds the kept-column arena of the Level-1 sweep, so
// repeated sweeps allocate nothing.
type level1Scratch struct {
	cols [][]float64 // cols[0] is the constant direction
	dn   []float64
	work []float64
}

func newLevel1Scratch(n, s int) *level1Scratch {
	l1 := &level1Scratch{cols: make([][]float64, s+1), dn: make([]float64, s+1), work: make([]float64, n)}
	for j := range l1.cols {
		l1.cols[j] = make([]float64, n)
	}
	return l1
}

// sweep is the unblocked modified Gram-Schmidt DOrtho: every kept column
// costs the candidate a separate D-dot pass and a separate axpy pass
// (Level-1 BLAS only). It returns the number of kept columns.
func (l1 *level1Scratch) sweep(b *linalg.Dense, d []float64) int {
	n := b.Rows
	ddot := func(x, y []float64) float64 {
		var s float64
		for i := range x {
			s += x[i] * d[i] * y[i]
		}
		return s
	}
	norm := func(x []float64) float64 {
		var s float64
		for _, v := range x {
			s += v * v
		}
		return math.Sqrt(s)
	}
	for i := range l1.cols[0] {
		l1.cols[0][i] = 1 / math.Sqrt(float64(n))
	}
	l1.dn[0] = ddot(l1.cols[0], l1.cols[0])
	kept := 1
	work := l1.work
	for j := 0; j < b.Cols; j++ {
		src := b.Col(j)
		nrm := norm(src)
		if nrm <= 1e-3 {
			continue
		}
		for i, v := range src {
			work[i] = v / nrm
		}
		for k := 0; k < kept; k++ {
			q := l1.cols[k]
			c := ddot(q, work) / l1.dn[k]
			for i := range work {
				work[i] -= c * q[i]
			}
		}
		res := norm(work)
		if res <= 1e-3 {
			continue
		}
		col := l1.cols[kept]
		for i, v := range work {
			col[i] = v / res
		}
		l1.dn[kept] = ddot(col, col)
		kept++
	}
	return kept - 1
}
