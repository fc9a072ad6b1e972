package linalg

import (
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Reference oracles for the bitwise equivalence suites. Each is a minimal
// serial loop nest that shares no code with the kernel it checks; what it
// does share is the documented summation order — per parallel.TileRows tile
// in ascending row order, tiles combined in ascending order — because that
// order is the kernels' contract.

// tileBounds returns the row range of tile t of an n-row reduction.
func tileBounds(n, t int) (lo, hi int) {
	tiles := parallel.ReduceBlocks(n)
	return t * n / tiles, (t + 1) * n / tiles
}

// refAtB is C = AᵀB as a tile-ordered triple loop.
func refAtB(a, b *Dense) *Dense {
	n := a.Rows
	c := NewDense(a.Cols, b.Cols)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < a.Cols; i++ {
			ai, bj := a.Col(i), b.Col(j)
			var sum float64
			for t := 0; t < parallel.ReduceBlocks(n); t++ {
				lo, hi := tileBounds(n, t)
				var part float64
				for r := lo; r < hi; r++ {
					part += ai[r] * bj[r]
				}
				sum += part
			}
			c.Set(i, j, sum)
		}
	}
	return c
}

// refLapMul is P = L·S as one single-worker SpMV per column.
func refLapMul(g *graph.CSR, deg []float64, s *Dense) *Dense {
	p := NewDense(s.Rows, s.Cols)
	for j := 0; j < s.Cols; j++ {
		LapMulVecBudget(parallel.FixedBudget(1), g, deg, s.Col(j), p.Col(j))
	}
	return p
}

// refScaledDDot is the keep step unfused: dst = a·src, then its D-norm
// (plain when d is nil) tile by tile.
func refScaledDDot(dst, src, d []float64, a float64) float64 {
	n := len(src)
	for i, v := range src {
		dst[i] = a * v
	}
	var sum float64
	for t := 0; t < parallel.ReduceBlocks(n); t++ {
		lo, hi := tileBounds(n, t)
		var part float64
		for i := lo; i < hi; i++ {
			if d == nil {
				part += dst[i] * dst[i]
			} else {
				part += dst[i] * d[i] * dst[i]
			}
		}
		sum += part
	}
	return sum
}

// refPanelDots is ⟨cols[j], work⟩_D for every flat column, one at a time:
// d weights the shared vector, as in the fused kernel.
func refPanelDots(cols [][]float64, work, d []float64) []float64 {
	n := len(work)
	out := make([]float64, len(cols))
	for j, col := range cols {
		for t := 0; t < parallel.ReduceBlocks(n); t++ {
			lo, hi := tileBounds(n, t)
			var part float64
			for r := lo; r < hi; r++ {
				w := work[r]
				if d != nil {
					w = d[r] * work[r]
				}
				part += col[r] * w
			}
			out[j] += part
		}
	}
	return out
}

// refSubtract is work ← work − Σ coeffs[j]·cols[j] over flat columns in
// PanelCols-wide chunks: a full chunk subtracts the sum of its eight
// products, a tail chunk subtracts product by product.
func refSubtract(work []float64, cols [][]float64, coeffs []float64) {
	for r := range work {
		for c0 := 0; c0 < len(cols); c0 += PanelCols {
			if c0+PanelCols <= len(cols) {
				sum := coeffs[c0] * cols[c0][r]
				for j := c0 + 1; j < c0+PanelCols; j++ {
					sum += coeffs[j] * cols[j][r]
				}
				work[r] -= sum
				continue
			}
			for j := c0; j < len(cols); j++ {
				work[r] -= coeffs[j] * cols[j][r]
			}
		}
	}
}
