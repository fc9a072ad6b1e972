package linalg

import (
	"time"

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
// O(s) (Table 1's analysis). Each vertex's s sums are stored straight
// into the columns of p (allocated when nil), so no n·s row-major product
// panel ever exists. The source pack srm stays global because fusedRows
// gathers arbitrary neighbors' rows. Every output element is produced by
// one worker with the per-element accumulation order of a
// column-at-a-time SpMV (adjacency order, degree term last), so the
// result equals s LapMulVecBudget calls bit for bit under every worker
// budget. arena only counts the gathers and may be nil.
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
	arena.track(workers)
	ls := lsArgs{g: g, deg: deg, s: s, p: p, srm: srm, arena: arena}
	parallel.Blocks(workers, n, ls, lsArgs.pack)
	parallel.Blocks(workers, n, ls, lsArgs.fuse)
	return p
}

// lsArgs is the operands of one LapMulDenseTiledPackedBudget call; its
// methods are the two passes' block bodies.
type lsArgs struct {
	g     *graph.CSR
	deg   []float64
	s, p  *Dense
	srm   []float64
	arena *PackArena
}

// pack transposes rows [lo, hi) of S into srm.
func (x lsArgs) pack(_, lo, hi int) {
	n := x.s.Rows
	packRowMajor(strided{x.s.Data[lo:], n, hi - lo}, x.srm, lo, x.s.Cols)
}

// fuse computes rows [lo, hi) of P = L·S into p's columns.
func (x lsArgs) fuse(w, lo, hi int) {
	n := x.s.Rows
	x.arena.gathers[w] += fusedRows(x.g, x.deg, x.srm, strided{x.p.Data[lo:], n, hi - lo}, lo, hi, x.s.Cols)
}

// TripleProdBudget computes the TripleProd phase Z = Sᵀ(L·S) in one walk
// over the rows, S being the n×k matrix in pc's stored columns [first,
// pc.Len()). It returns S row-major, in the store's memory: the store is
// first rewritten in place by RowMajorBudget, which empties it. The walk
// takes AtBPackedBudget's tile grid; per PackRows chunk of a tile it runs
// fusedRows into the column-packed P chunk of the worker's arena slot and
// extends the tile's SᵀP partial (partials: capacity ≥
// parallel.ReduceBlocks(n)·k², grown when short) by stpSweep over that
// chunk and the chunk's rows of srm. Z = SᵀLS is symmetric, so only the
// elements on or above the diagonal, and the one below it in each column
// pair, are swept and, once the partials are combined, the strict upper
// triangle is mirrored onto the lower one. Every element of P and of each
// upper partial adds the products of LapMulDenseTiledPackedBudget and
// AtBPackedBudget in the same order, and the partials are combined in
// tile order, so Z's upper triangle equals that two-pass product bit for
// bit under every budget, Z is exactly symmetric, and P never outlives a
// chunk. srm is what MulSmallRowMajorBudget projects. z receives Z
// (allocated when nil); arena may be nil. lsShare is the L·S half's
// fraction of the workers' time (the in-place transpose, fusedRows); the
// SᵀP sweeps, the combine and the mirror are the rest.
func TripleProdBudget(bud parallel.Budget, g *graph.CSR, deg []float64, pc *PackedCols, first int, z *Dense, partials []float64, arena *PackArena) (_ *Dense, srm []float64, lsShare float64) {
	n, k := pc.n, pc.k-first
	if n != g.NumV {
		panic("linalg: TripleProd dimension mismatch")
	}
	if z == nil {
		z = NewDense(k, k)
	} else if z.Rows != k || z.Cols != k {
		panic("linalg: TripleProd output shape mismatch")
	}
	tiles := parallel.ReduceBlocks(n)
	panels := tilePanels(z.Data, partials, tiles, k*k)
	if arena == nil {
		arena = &PackArena{}
	}
	workers := min(bud.Workers(), tiles)
	start := time.Now()
	srm = pc.RowMajorBudget(bud, first, arena)
	// Every worker spends the transpose's span in it.
	ls := time.Since(start) * time.Duration(workers)
	// A slot holds one chunk of P, at most min(PackRows, n) rows (a small
	// graph gets small slots), its columns packColPad floats further apart
	// than that: at 512 rows an unpadded column stride is 4 KiB, and a
	// vertex's k stores would all land in one L1 set.
	arena.Ensure(workers, (min(PackRows, n)+packColPad)*k)
	arena.track(workers)
	parallel.Tiles(workers, n, tiles, tripleProd{g: g, deg: deg, srm: srm, panels: panels, arena: arena, k: k}, tripleProd.walkTile)
	var atb time.Duration
	for w := 0; w < workers; w++ {
		ls, atb = ls+arena.busy[2*w], atb+arena.busy[2*w+1]
	}
	start = time.Now()
	combinePanels(z.Data, panels, tiles, k*k)
	for j := 0; j < k; j++ {
		for i := j + 1; i < k; i++ {
			z.Data[j*k+i] = z.Data[i*k+j]
		}
	}
	atb += time.Since(start)
	if ls+atb > 0 {
		lsShare = float64(ls) / float64(ls+atb)
	}
	return z, srm, lsShare
}

// tripleProd is the operands of one TripleProdBudget call. Its method is
// the tile walk's body and takes it by value, so a one-worker call
// allocates nothing.
type tripleProd struct {
	g        *graph.CSR
	deg, srm []float64
	panels   []float64  // per-tile k×k SᵀP partials
	arena    *PackArena // worker slots and busy times
	k        int
}

// walkTile writes tile t's panel Σ_{r∈[lo,hi)} S_r·(L·S)_rᵀ, one PackRows
// chunk of P at a time through worker w's arena slot, the SᵀP sweep
// reading the chunk's S rows straight from srm, and charges w the time of
// its L·S and SᵀP halves.
func (tp tripleProd) walkTile(w, t, lo, hi int) {
	k, slot := tp.k, tp.arena.slot(w)
	out := tp.panels[t*k*k : (t+1)*k*k]
	clear(out)
	var ls, atb time.Duration
	t0 := time.Now()
	for r0 := lo; r0 < hi; r0 += PackRows {
		r1 := min(r0+PackRows, hi)
		p := strided{slot, r1 - r0 + packColPad, r1 - r0}
		tp.arena.gathers[w] += fusedRows(tp.g, tp.deg, tp.srm, p, r0, r1, k)
		t1 := time.Now()
		stpSweep(tp.srm[r0*k:r1*k], p, k, out)
		t2 := time.Now()
		ls, atb, t0 = ls+t1.Sub(t0), atb+t2.Sub(t1), t2
	}
	tp.arena.busy[2*w] += ls
	tp.arena.busy[2*w+1] += atb
}

// packRowMajor transposes the column view src, whose row 0 is vertex lo,
// into rows [lo, lo+src.h) of the row-major srm. It runs in 64-row strips
// so the strip's srm rows stay in L1 while every column is written into
// them, instead of striding all of srm once per column.
func packRowMajor(src strided, srm []float64, lo, cols int) {
	for i0 := 0; i0 < src.h; i0 += 64 {
		i1 := min(i0+64, src.h)
		rows := srm[(lo+i0)*cols : (lo+i1)*cols]
		for j := 0; j < cols; j++ {
			for i, v := range src.col(j)[i0:i1] {
				rows[i*cols+j] = v
			}
		}
	}
}

// fusedRowsGo computes rows [lo, hi) of the product L·S over the
// row-major pack srm into the column view dst, whose row 0 is vertex lo:
// dst_i = deg_i·srm_i − Σ_{u∈adj(i)} w_iu·srm_u. Each vertex's adjacency
// is walked once per 8-, 4- or 1-column chunk with that chunk's sums in
// register locals, so an edge costs one load-add per column instead of a
// load-add-store through dst. The accumulation order per element matches
// LapMulVecBudget exactly (from zero, adjacency order, degree term last).
// It returns the neighbour rows it gathered, one per adjacency entry per
// chunk. It is fusedRows off amd64 and the oracle of the SSE2 walk.
func fusedRowsGo(g *graph.CSR, deg, srm []float64, dst strided, lo, hi, cols int) (gathers int64) {
	st := dst.stride
	for i := lo; i < hi; i++ {
		o0, o1 := g.Offsets[i], g.Offsets[i+1]
		adj := g.Adj[o0:o1]
		var wts []float64
		if g.Weighted() {
			wts = g.Weights[o0:o1]
		}
		d := deg[i]
		self := srm[i*cols : (i+1)*cols]
		// Column c of vertex i is out[c·st].
		out := dst.buf[i-lo:]
		c, walks := 0, 0
		for ; c+8 <= cols; c, walks = c+8, walks+1 {
			s0, s1, s2, s3, s4, s5, s6, s7 := adjSum8(adj, wts, srm, cols, c)
			x, o := self[c:c+8], out[c*st:]
			o[0], o[st], o[2*st], o[3*st] = d*x[0]-s0, d*x[1]-s1, d*x[2]-s2, d*x[3]-s3
			o[4*st], o[5*st], o[6*st], o[7*st] = d*x[4]-s4, d*x[5]-s5, d*x[6]-s6, d*x[7]-s7
		}
		if c+4 <= cols {
			s0, s1, s2, s3 := adjSum4(adj, wts, srm, cols, c)
			x, o := self[c:c+4], out[c*st:]
			o[0], o[st], o[2*st], o[3*st] = d*x[0]-s0, d*x[1]-s1, d*x[2]-s2, d*x[3]-s3
			c, walks = c+4, walks+1
		}
		for ; c < cols; c, walks = c+1, walks+1 {
			out[c*st] = d*self[c] - adjSum1(adj, wts, srm, cols, c)
		}
		gathers += int64(walks * len(adj))
	}
	return gathers
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

// stpSweepGo extends the k×k column-major SᵀP panel out[j·k+i] by
// Σ_r s[r·k+i]·p_j[r] over the rows of the row-major chunk s and the
// column view p of the matching P chunk. Column pair (j, j+1) takes rows
// i < j+2, so a pair sweeps the diagonal block and the one element below
// it; a lone last column (odd k) takes rows i ≤ j. Every element is
// loaded, extended by one product per row in ascending row order and
// stored back, so feeding a tile through chunk by chunk performs the
// additions of one full-range AᵀB sweep. It is stpSweep off amd64 and the
// oracle of the SSE2 sweep. The rows go stpRows at a time, so the column
// pairs re-read a block of S from L1 rather than the whole chunk from L2.
func stpSweepGo(s []float64, p strided, k int, out []float64) {
	for r0 := 0; r0 < p.h; r0 += stpRows {
		r1 := min(r0+stpRows, p.h)
		stpSweepRows(s[r0*k:r1*k], strided{p.buf[r0:], p.stride, r1 - r0}, k, out)
	}
}

// stpRows is stpSweepGo's row block: 32 rows of S are 16 KiB at k = 64.
const stpRows = 32

// stpSweepRows is stpSweepGo over one row block.
func stpSweepRows(s []float64, p strided, k int, out []float64) {
	s = s[:p.h*k]
	for j := 0; j < k; j += 2 {
		p0, o0 := p.col(j), out[j*k:(j+1)*k]
		if j+1 == k {
			for i := range o0 {
				o0[i] = stpDot(s[i:], k, p0, o0[i])
			}
			break
		}
		p1, o1 := p.col(j+1), out[(j+1)*k:(j+2)*k]
		top, i := j+2, 0
		for ; i+4 <= top; i += 4 {
			stp4x2Go(s[i:], k, p0, p1, o0[i:i+4], o1[i:i+4])
		}
		for ; i < top; i++ {
			o0[i], o1[i] = stpDot(s[i:], k, p0, o0[i]), stpDot(s[i:], k, p1, o1[i])
		}
	}
}

// stp4x2Go extends o0[0:4] and o1[0:4] by the products of the four
// row-major S columns at s[0:4] (rows k apart) with p0 and p1, each
// accumulator in a register local.
func stp4x2Go(s []float64, k int, p0, p1, o0, o1 []float64) {
	c00, c10, c20, c30 := o0[0], o0[1], o0[2], o0[3]
	c01, c11, c21, c31 := o1[0], o1[1], o1[2], o1[3]
	p1 = p1[:len(p0)]
	for r, x0 := range p0 {
		a, x1 := s[r*k:][:4], p1[r]
		c00 += a[0] * x0
		c01 += a[0] * x1
		c10 += a[1] * x0
		c11 += a[1] * x1
		c20 += a[2] * x0
		c21 += a[2] * x1
		c30 += a[3] * x0
		c31 += a[3] * x1
	}
	o0[0], o0[1], o0[2], o0[3] = c00, c10, c20, c30
	o1[0], o1[1], o1[2], o1[3] = c01, c11, c21, c31
}

// stpDot returns c + Σ_r s[r·k]·p[r], one product at a time.
func stpDot(s []float64, k int, p []float64, c float64) float64 {
	for r, x := range p {
		c += s[r*k] * x
	}
	return c
}
