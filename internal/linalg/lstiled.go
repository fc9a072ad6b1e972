package linalg

import (
	"repro/internal/graph"
	"repro/internal/parallel"
)

// LapMulDenseTiledPackedBudget computes P = L·S for the graph Laplacian
// L = D − A and the n×s column-major S — step 1 of the TripleProd phase —
// exploiting the s ≫ 1 special case the paper points at ("performance can
// be further improved for special cases such as m/n ≫ s or s ≫ 1", §3.1):
// instead of s independent SpMV passes that each re-read the adjacency
// structure, S is repacked row-major into srm (n·s floats, allocated when
// its capacity is short) so one pass over the edge list advances all s
// columns — each neighbor access loads a vertex's full s-wide row
// contiguously, raising the kernel's arithmetic intensity from O(1) to
// O(s) (Table 1's analysis). The output pass stays cache-resident: each
// worker fuses a PackRows-high chunk into its arena slot and unpacks it
// into the column-major p (allocated when nil) while it is still in
// cache, so no n·s row-major product panel ever exists. The source pack
// srm stays global because fusedRows gathers arbitrary neighbors' rows.
// Every output element is produced by one worker with the per-element
// accumulation order of a column-at-a-time SpMV (adjacency order, degree
// term last), so the result equals s LapMulVecBudget calls bit for bit
// under every worker budget. arena may be nil (private storage).
func LapMulDenseTiledPackedBudget(bud parallel.Budget, g *graph.CSR, deg []float64, s, p *Dense, srm []float64, arena *PackArena) *Dense {
	n, cols := s.Rows, s.Cols
	if n != g.NumV {
		panic("linalg: LapMulDenseTiledPacked dimension mismatch")
	}
	if p == nil {
		p = NewDense(n, cols)
	} else if p.Rows != n || p.Cols != cols {
		panic("linalg: LapMulDenseTiledPacked output shape mismatch")
	}
	if cols == 0 {
		return p
	}
	if cap(srm) < n*cols {
		srm = make([]float64, n*cols)
	}
	srm = srm[:n*cols]
	if arena == nil {
		arena = &PackArena{}
	}
	workers := bud.BlockWorkers(n)
	arena.Ensure(workers, min(PackRows, n)*cols)
	if workers <= 1 {
		packRowMajor(s, srm, 0, n, cols)
		slot := arena.slot(0)
		for r0 := 0; r0 < n; r0 += PackRows {
			r1 := min(r0+PackRows, n)
			fusedRows(g, deg, srm, slot, r0, r1, cols)
			unpackRowMajor(p, slot, r0, r1, cols)
		}
		return p
	}
	parallel.ForBlockIndexed(workers, n, func(_, lo, hi int) {
		packRowMajor(s, srm, lo, hi, cols)
	})
	parallel.ForBlockIndexed(workers, n, func(w, lo, hi int) {
		slot := arena.slot(w)
		for r0 := lo; r0 < hi; r0 += PackRows {
			r1 := min(r0+PackRows, hi)
			fusedRows(g, deg, srm, slot, r0, r1, cols)
			unpackRowMajor(p, slot, r0, r1, cols)
		}
	})
	return p
}

// packRowMajor transposes rows [lo, hi) of the column-major s into srm.
func packRowMajor(s *Dense, srm []float64, lo, hi, cols int) {
	for j := 0; j < cols; j++ {
		col := s.Col(j)
		for i := lo; i < hi; i++ {
			srm[i*cols+j] = col[i]
		}
	}
}

// fusedRows computes rows [lo, hi) of the row-major product L·S over the
// row-major pack srm into the chunk prm, whose row 0 is vertex lo:
// prm_i = deg_i·srm_i − Σ_{u∈adj(i)} w_iu·srm_u. Each vertex's adjacency
// is walked once per 8-, 4- or 1-column chunk with that chunk's sums in
// register locals, so an edge costs one load-add per column instead of a
// load-add-store through prm. The accumulation order per element matches
// LapMulVecBudget exactly (from zero, adjacency order, degree term last).
func fusedRows(g *graph.CSR, deg, srm, prm []float64, lo, hi, cols int) {
	for i := lo; i < hi; i++ {
		o0, o1 := g.Offsets[i], g.Offsets[i+1]
		adj := g.Adj[o0:o1]
		var wts []float64
		if g.Weighted() {
			wts = g.Weights[o0:o1]
		}
		d := deg[i]
		self := srm[i*cols : (i+1)*cols]
		out := prm[(i-lo)*cols : (i-lo+1)*cols]
		c := 0
		for ; c+8 <= cols; c += 8 {
			s0, s1, s2, s3, s4, s5, s6, s7 := adjSum8(adj, wts, srm, cols, c)
			x, o := self[c:c+8], out[c:c+8]
			o[0], o[1], o[2], o[3] = d*x[0]-s0, d*x[1]-s1, d*x[2]-s2, d*x[3]-s3
			o[4], o[5], o[6], o[7] = d*x[4]-s4, d*x[5]-s5, d*x[6]-s6, d*x[7]-s7
		}
		if c+4 <= cols {
			s0, s1, s2, s3 := adjSum4(adj, wts, srm, cols, c)
			x, o := self[c:c+4], out[c:c+4]
			o[0], o[1], o[2], o[3] = d*x[0]-s0, d*x[1]-s1, d*x[2]-s2, d*x[3]-s3
			c += 4
		}
		for ; c < cols; c++ {
			out[c] = d*self[c] - adjSum1(adj, wts, srm, cols, c)
		}
	}
}

// adjSum8 returns Σ_a wts[a]·srm[adj[a]·cols + c + k] for k < 8 (unit
// weights when wts is nil), each sum from zero in adjacency order.
func adjSum8(adj []int32, wts, srm []float64, cols, c int) (s0, s1, s2, s3, s4, s5, s6, s7 float64) {
	if wts == nil {
		for _, u := range adj {
			x := srm[int(u)*cols+c:][:8]
			s0 += x[0]
			s1 += x[1]
			s2 += x[2]
			s3 += x[3]
			s4 += x[4]
			s5 += x[5]
			s6 += x[6]
			s7 += x[7]
		}
		return
	}
	wts = wts[:len(adj)]
	for a, u := range adj {
		w, x := wts[a], srm[int(u)*cols+c:][:8]
		s0 += w * x[0]
		s1 += w * x[1]
		s2 += w * x[2]
		s3 += w * x[3]
		s4 += w * x[4]
		s5 += w * x[5]
		s6 += w * x[6]
		s7 += w * x[7]
	}
	return
}

// adjSum4 is adjSum8 for four columns.
func adjSum4(adj []int32, wts, srm []float64, cols, c int) (s0, s1, s2, s3 float64) {
	if wts == nil {
		for _, u := range adj {
			x := srm[int(u)*cols+c:][:4]
			s0 += x[0]
			s1 += x[1]
			s2 += x[2]
			s3 += x[3]
		}
		return
	}
	wts = wts[:len(adj)]
	for a, u := range adj {
		w, x := wts[a], srm[int(u)*cols+c:][:4]
		s0 += w * x[0]
		s1 += w * x[1]
		s2 += w * x[2]
		s3 += w * x[3]
	}
	return
}

// adjSum1 is adjSum8 for one column.
func adjSum1(adj []int32, wts, srm []float64, cols, c int) (s float64) {
	if wts == nil {
		for _, u := range adj {
			s += srm[int(u)*cols+c]
		}
		return
	}
	wts = wts[:len(adj)]
	for a, u := range adj {
		s += wts[a] * srm[int(u)*cols+c]
	}
	return
}

// unpackRowMajor transposes the chunk prm (row 0 is vertex lo, like
// fusedRows) into rows [lo, hi) of the column-major p.
func unpackRowMajor(p *Dense, prm []float64, lo, hi, cols int) {
	for j := 0; j < cols; j++ {
		col := p.Col(j)
		for i := lo; i < hi; i++ {
			col[i] = prm[(i-lo)*cols+j]
		}
	}
}
