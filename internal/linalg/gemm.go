package linalg

import (
	"repro/internal/parallel"
)

// MulSmallBudget computes C = A·Y where A is n×s column-major (large n)
// and Y is s×p (tiny), writing into c (allocated when nil; contents are
// overwritten). This is the final projection [x, y] = B·Y of both HDE
// variants. Parallelized over row blocks; within a block the output
// columns are produced in pairs so every A column is streamed once per
// pair instead of once per output column (half the read traffic for the
// usual p = 2). Each output element is produced by exactly one worker
// with a fixed in-row summation order, so the result is
// partition-independent.
func MulSmallBudget(bud parallel.Budget, a, y, c *Dense) *Dense {
	if a.Cols != y.Rows {
		panic("linalg: MulSmall dimension mismatch")
	}
	return mulSmall(bud, a.Data, a.Rows, 1, a.Rows, y, c)
}

// MulSmallRowMajorBudget is MulSmallBudget with A given row-major: a holds
// n rows of s = y.Rows floats, as TripleProdBudget returns S. Both run
// one kernel, so they agree bit for bit on the same matrix.
func MulSmallRowMajorBudget(bud parallel.Budget, a []float64, y, c *Dense) *Dense {
	n := len(a) / y.Rows
	if n*y.Rows != len(a) {
		panic("linalg: MulSmall dimension mismatch")
	}
	return mulSmall(bud, a, n, y.Rows, 1, y, c)
}

// mulSmall computes c = A·y over row blocks for the n-row A whose element
// (r, k) is a[r·rs + k·ks].
func mulSmall(bud parallel.Budget, a []float64, n, rs, ks int, y, c *Dense) *Dense {
	if c == nil {
		c = NewDense(n, y.Cols)
	} else if c.Rows != n || c.Cols != y.Cols {
		panic("linalg: MulSmall output shape mismatch")
	}
	parallel.Blocks(bud.BlockWorkers(n), n, mulArgs{a, rs, ks, y, c}, mulArgs.rows)
	return c
}

// mulArgs is the operands of one mulSmall call: A's element (r, k) is
// a[r·rs + k·ks].
type mulArgs struct {
	a      []float64
	rs, ks int
	y, c   *Dense
}

// rows computes rows [lo, hi) of c = A·y, two output columns at a time:
// for each row quad the k-loop reads A(r…r+3, k) once and feeds both
// columns' accumulators, summing over k in ascending order exactly like
// the one-column-at-a-time reference.
func (m mulArgs) rows(_, lo, hi int) {
	a, rs, ks, y, c := m.a, m.rs, m.ks, m.y, m.c
	s, p := y.Rows, y.Cols
	j := 0
	for ; j+2 <= p; j += 2 {
		y0, y1 := y.Col(j), y.Col(j+1)
		c0, c1 := c.Col(j), c.Col(j+1)
		r := lo
		for ; r+4 <= hi; r += 4 {
			var s00, s01, s02, s03, s10, s11, s12, s13 float64
			for k, at := 0, r*rs; k < s; k, at = k+1, at+ks {
				f0, f1 := y0[k], y1[k]
				a0, a1, a2, a3 := a[at], a[at+rs], a[at+2*rs], a[at+3*rs]
				s00 += a0 * f0
				s10 += a0 * f1
				s01 += a1 * f0
				s11 += a1 * f1
				s02 += a2 * f0
				s12 += a2 * f1
				s03 += a3 * f0
				s13 += a3 * f1
			}
			c0[r], c0[r+1], c0[r+2], c0[r+3] = s00, s01, s02, s03
			c1[r], c1[r+1], c1[r+2], c1[r+3] = s10, s11, s12, s13
		}
		for ; r < hi; r++ {
			var s0, s1 float64
			for k, at := 0, r*rs; k < s; k, at = k+1, at+ks {
				av := a[at]
				s0 += av * y0[k]
				s1 += av * y1[k]
			}
			c0[r], c1[r] = s0, s1
		}
	}
	if j < p {
		y0 := y.Col(j)
		c0 := c.Col(j)
		for r := lo; r < hi; r++ {
			var s0 float64
			for k, at := 0, r*rs; k < s; k, at = k+1, at+ks {
				s0 += a[at] * y0[k]
			}
			c0[r] = s0
		}
	}
}
