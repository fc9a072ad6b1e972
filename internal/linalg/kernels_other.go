//go:build !amd64

package linalg

import "repro/internal/graph"

// Off amd64 the bit-exact inner loops are the Go kernels themselves; see
// kernels_amd64.go for their SSE2 forms.

func fusedRows(g *graph.CSR, deg, srm []float64, dst strided, lo, hi, cols int) int64 {
	return fusedRowsGo(g, deg, srm, dst, lo, hi, cols)
}

func stpSweep(s []float64, p strided, k int, out []float64) { stpSweepGo(s, p, k, out) }

func dDots8(c0, c1, c2, c3, c4, c5, c6, c7, w, d, out []float64) {
	out = out[:PanelCols]
	out[0], out[1], out[2], out[3] = dDot4(c0, c1, c2, c3, w, d)
	out[4], out[5], out[6], out[7] = dDot4(c4, c5, c6, c7, w, d)
}

func sub8(w, f, c0, c1, c2, c3, c4, c5, c6, c7 []float64) {
	sub8Go(w, f, c0, c1, c2, c3, c4, c5, c6, c7)
}

func sub2(w, f, c0, c1 []float64) { sub2Go(w, f, c0, c1) }

func sub1(w []float64, f0 float64, c0 []float64) { sub1Go(w, f0, c0) }
