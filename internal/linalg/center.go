package linalg

import "repro/internal/parallel"

// ColumnCenter subtracts each column's mean from its entries, in the
// two-phase manner §3.2 describes for parallel PHDE: a parallel reduction
// computes the means, then a parallel sweep performs the subtraction.
// After the call every column of m sums to zero. The means are sums over
// parallel's tile grid, so the result is bitwise identical for every bud.
func ColumnCenter(bud parallel.Budget, m *Dense) {
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		mean := parallel.Sum(bud, len(col), func(i int) float64 { return col[i] }) / float64(len(col))
		bud.ForBlock(len(col), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				col[i] -= mean
			}
		})
	}
}

// DoubleCenter applies the double-centering operator of classical MDS /
// PivotMDS to the n×s squared-distance matrix: subtract row means, column
// means, add the grand mean, and scale by −1/2. PivotMDS requires this in
// place of PHDE's column centering (§3.2); the computation is "similar to
// column centering" and is organized the same two-phase way.
func DoubleCenter(bud parallel.Budget, m *Dense) {
	n, s := m.Rows, m.Cols
	colMean := make([]float64, s)
	for j := 0; j < s; j++ {
		col := m.Col(j)
		colMean[j] = parallel.Sum(bud, n, func(i int) float64 { return col[i] }) / float64(n)
	}
	rowMean := make([]float64, n)
	bud.ForBlock(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var sum float64
			for j := 0; j < s; j++ {
				sum += m.At(i, j)
			}
			rowMean[i] = sum / float64(s)
		}
	})
	var grand float64
	for _, cm := range colMean {
		grand += cm
	}
	grand /= float64(s)
	for j := 0; j < s; j++ {
		col := m.Col(j)
		cm := colMean[j]
		bud.ForBlock(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				col[i] = -0.5 * (col[i] - cm - rowMean[i] + grand)
			}
		})
	}
}

// SquareElements replaces every entry with its square (PivotMDS operates
// on squared graph distances).
func SquareElements(bud parallel.Budget, m *Dense) {
	bud.ForBlock(len(m.Data), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			m.Data[i] *= m.Data[i]
		}
	})
}
