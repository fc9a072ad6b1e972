package core

import (
	"fmt"

	"repro/internal/bfs"
	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/pivot"
)

// PHDE computes a layout with the PCA-based High-Dimensional Embedding of
// Harel and Koren (ICPP'20 Algorithm 2, parallelized per §3.2): s
// traversals, two-phase column centering of the distance matrix, the top
// two eigenvectors of CᵀC, and the projection [x, y] = C·Y. Unlike
// ParHDE it involves no Laplacian product.
func PHDE(g *graph.CSR, opt Options) (*Layout, *Report, error) {
	return pcaEmbed(g, opt, false)
}

// PivotMDS computes a layout with Brandes and Pich's PivotMDS, whose
// computational profile matches PHDE except that the squared distance
// matrix is double-centered instead of column-centered (§3.2).
func PivotMDS(g *graph.CSR, opt Options) (*Layout, *Report, error) {
	return pcaEmbed(g, opt, true)
}

func pcaEmbed(g *graph.CSR, opt Options, doubleCenter bool) (*Layout, *Report, error) {
	opt = opt.withDefaults()
	if g.NumV < 2 {
		return nil, nil, fmt.Errorf("core: graph has %d vertices, need at least 2", g.NumV)
	}
	rep := &Report{}
	bud := opt.budget(rep)
	bd := &rep.Breakdown
	n := g.NumV
	s := opt.Subspace
	if s >= n {
		s = n - 1
	}
	var layout *Layout
	var err error
	timed(&bd.Total, func() {
		// --- BFS phase ---------------------------------------------------
		c := linalg.NewDense(n, s)
		start := int32(splitmix(opt.Seed) % uint64(n))
		var ps pivot.PhaseStats
		onTrav := func(f func()) { timed(&bd.BFSTraversal, f) }
		onOther := func(f func()) { timed(&bd.BFSOther, f) }
		if g.Weighted() {
			ps = pivot.PhaseWeighted(g, c, start, opt.Delta, onTrav, onOther)
		} else {
			ps = pivot.PhaseBudget(bud, g, c, start, opt.Pivots, bfs.Options{}, nil, onTrav, onOther)
		}
		rep.Sources = ps.Sources
		rep.BFSStats = ps.Traversal
		if err = checkConnected(c.Col(0), start); err != nil {
			return
		}

		// --- Centering ("DblCntr"/"ColCenter" in Figure 6) ----------------
		timed(&bd.Centering, func() {
			if doubleCenter {
				linalg.SquareElements(bud, c)
				linalg.DoubleCenter(bud, c)
			} else {
				linalg.ColumnCenter(bud, c)
			}
		})

		// --- MatMul: Z = CᵀC ----------------------------------------------
		var z *linalg.Dense
		timed(&bd.Gemm, func() { z = linalg.AtBPackedBudget(bud, c, c, nil, nil, nil) })

		// --- Eigensolve: top two eigenvectors of the covariance -----------
		var axes *linalg.Dense
		timed(&bd.Eigensolve, func() {
			rep.Eigenvalues, axes, err = eigen.TopK(z, opt.Dims)
		})
		if err != nil {
			return
		}
		rep.KeptColumns = s

		// --- Projection [x, y] = C·Y --------------------------------------
		timed(&bd.Project, func() {
			layout = &Layout{Coords: linalg.MulSmallBudget(bud, c, axes, nil)}
		})
	})
	if err != nil {
		return nil, nil, err
	}
	return layout, rep, nil
}
