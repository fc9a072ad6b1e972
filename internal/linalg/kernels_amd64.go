package linalg

import (
	"unsafe"

	"repro/internal/graph"
)

// The SSE2 forms of the bit-exact inner loops, in kernels_amd64.s
// (generated by mkasm.go). Each gives every XMM lane one output element
// and applies to it exactly the Go kernel's operations in the same order,
// MULPD/ADDPD/SUBPD and never a fused multiply-add, so they equal the Go
// kernels — the implementation off amd64 and the oracles of
// kernels_test.go — bit for bit. SSE2 is the amd64 baseline: nothing is
// dispatched on CPU features. The assembly trusts its operands: the
// wrappers below bound the slices it reads and writes before the call,
// and the L·S walk's adjacency (offsets ascending, neighbour ids below
// NumV) is trusted under the CSR invariant graph.(*CSR).Validate checks.

//go:generate go run mkasm.go -out kernels_amd64.s

// lsWalkCols is the widest L·S walk: 14 column pairs in XMM accumulators.
const lsWalkCols = 28

//go:noescape
func lsWalk(offsets *int64, adj *int32, deg, srm, dst *float64, lo, hi, rowBytes, dstStride, w int)

//go:noescape
func stp8x2(s, p, o *float64, h, k8, pcol int)

//go:noescape
func stp2x2(s, p, o *float64, h, k8, pcol int)

//go:noescape
func stp8x1(s, p, o *float64, h, k8, pcol int)

//go:noescape
func stp2x1(s, p, o *float64, h, k8, pcol int)

//go:noescape
func dDot8(c0, c1, c2, c3, c4, c5, c6, c7, w, d, out *float64, n int)

//go:noescape
func sub8Pairs(w, f, c0, c1, c2, c3, c4, c5, c6, c7 *float64, n int)

//go:noescape
func sub2Pairs(w, f, c0, c1 *float64, n int)

//go:noescape
func sub1Pairs(w *float64, f0 float64, c0 *float64, n int)

// fusedRows is fusedRowsGo with each vertex's adjacency walked once per
// ⌈cols/28⌉ column chunks of at most 28 columns (one walk for s ≤ 28,
// three at s = 64) instead of once per 8-, 4- or 1-column chunk. The
// rows go in PackRows-high pieces, each piece walked chunk by chunk, so
// the piece's adjacency stays in cache for the later chunks. A lone
// column and weighted graphs run fusedRowsGo.
func fusedRows(g *graph.CSR, deg, srm []float64, dst strided, lo, hi, cols int) (gathers int64) {
	if cols < 2 || lo >= hi || g.Weighted() {
		return fusedRowsGo(g, deg, srm, dst, lo, hi, cols)
	}
	if e0, e1 := g.Offsets[lo], g.Offsets[hi]; e1 > e0 {
		_, _ = g.Adj[e0], g.Adj[e1-1]
	}
	_ = deg[hi-1]
	_ = srm[g.NumV*cols-1]
	_ = dst.buf[hi-1-lo+(cols-1)*dst.stride]
	adj := unsafe.SliceData(g.Adj)
	walks := (cols + lsWalkCols - 1) / lsWalkCols
	for r0 := lo; r0 < hi; r0 += PackRows {
		r1 := min(r0+PackRows, hi)
		for c, left := 0, walks; left > 0; left-- {
			w := (cols - c + left - 1) / left
			lsWalk(&g.Offsets[0], adj, &deg[0], &srm[c], &dst.buf[r0-lo+c*dst.stride], r0, r1, cols*8, dst.stride, w)
			c += w
		}
	}
	return int64(walks) * (g.Offsets[hi] - g.Offsets[lo])
}

// stpSweep is stpSweepGo with the column pairs swept in blocks of eight,
// then two, rows i; the odd k's corner element runs stpDot.
func stpSweep(s []float64, p strided, k int, out []float64) {
	h := p.h
	if h == 0 || k == 0 {
		return
	}
	_ = s[h*k-1]
	_ = p.buf[(k-1)*p.stride+h-1]
	_ = out[k*k-1]
	k8, pcol := k*8, p.stride*8
	for j := 0; j < k; j += 2 {
		pj, o := &p.buf[j*p.stride], out[j*k:]
		i := 0
		if j+1 == k {
			for ; i+8 <= k; i += 8 {
				stp8x1(&s[i], pj, &o[i], h, k8, pcol)
			}
			for ; i+2 <= k; i += 2 {
				stp2x1(&s[i], pj, &o[i], h, k8, pcol)
			}
			if i < k {
				o[i] = stpDot(s[i:], k, p.col(j), o[i])
			}
			break
		}
		for ; i+8 <= j+2; i += 8 {
			stp8x2(&s[i], pj, &o[i], h, k8, pcol)
		}
		for ; i < j+2; i += 2 {
			stp2x2(&s[i], pj, &o[i], h, k8, pcol)
		}
	}
}

// dDots8 writes out[0:8] = ⟨c_j, w⟩_D for eight packed column slots, as
// two dDot4 calls would, two columns per XMM register.
func dDots8(c0, c1, c2, c3, c4, c5, c6, c7, w, d, out []float64) {
	n := len(w)
	out = out[:PanelCols]
	if n == 0 {
		clear(out)
		return
	}
	c0, c1, c2, c3 = c0[:n], c1[:n], c2[:n], c3[:n]
	c4, c5, c6, c7 = c4[:n], c5[:n], c6[:n], c7[:n]
	var dp *float64
	if d != nil {
		dp = &d[:n][0]
	}
	dDot8(&c0[0], &c1[0], &c2[0], &c3[0], &c4[0], &c5[0], &c6[0], &c7[0], &w[0], dp, &out[0], n)
}

// sub8 is sub8Go two rows per XMM register; an odd last row runs sub8Go.
func sub8(w, f, c0, c1, c2, c3, c4, c5, c6, c7 []float64) {
	n := len(w) &^ 1
	if n > 0 {
		f = f[:PanelCols]
		c0, c1, c2, c3 = c0[:n], c1[:n], c2[:n], c3[:n]
		c4, c5, c6, c7 = c4[:n], c5[:n], c6[:n], c7[:n]
		sub8Pairs(&w[0], &f[0], &c0[0], &c1[0], &c2[0], &c3[0], &c4[0], &c5[0], &c6[0], &c7[0], n)
	}
	if n < len(w) {
		sub8Go(w[n:], f, c0[n:], c1[n:], c2[n:], c3[n:], c4[n:], c5[n:], c6[n:], c7[n:])
	}
}

// sub2 is sub2Go two rows per XMM register; an odd last row runs sub2Go.
func sub2(w, f, c0, c1 []float64) {
	n := len(w) &^ 1
	if n > 0 {
		f = f[:2]
		c0, c1 = c0[:n], c1[:n]
		sub2Pairs(&w[0], &f[0], &c0[0], &c1[0], n)
	}
	if n < len(w) {
		sub2Go(w[n:], f, c0[n:], c1[n:])
	}
}

// sub1 is sub1Go two rows per XMM register; an odd last row runs sub1Go.
func sub1(w []float64, f0 float64, c0 []float64) {
	n := len(w) &^ 1
	if n > 0 {
		c0 = c0[:n]
		sub1Pairs(&w[0], f0, &c0[0], n)
	}
	if n < len(w) {
		sub1Go(w[n:], f0, c0[n:])
	}
}
