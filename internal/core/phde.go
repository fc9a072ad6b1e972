package core

import (
	"context"
	"fmt"

	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/phase"
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
	n := g.NumV
	s := min(opt.Subspace, n-1)
	clk := new(phase.Clock)

	// --- BFS phase, into the distance matrix C ----------------------------
	clk.Enter(phase.BFSOther)
	c := linalg.NewDense(n, s)
	start := int32(splitmix(opt.Seed) % uint64(n))
	// The stream can fail only through ctx or emit, and neither
	// Background nor Fill ever returns an error.
	ps, _ := distances(context.Background(), bud, clk, g, s, start, opt, nil, pivot.Fill(c))
	rep.Sources = ps.Sources
	rep.BFSStats = ps.Traversal
	if err := checkConnected(c.Col(0), start); err != nil {
		return nil, nil, err
	}

	// --- Centering ("DblCntr"/"ColCenter" in Figure 6) --------------------
	clk.Enter(phase.Centering)
	if doubleCenter {
		linalg.SquareElements(bud, c)
		linalg.DoubleCenter(bud, c)
	} else {
		linalg.ColumnCenter(bud, c)
	}

	// --- MatMul: Z = CᵀC --------------------------------------------------
	clk.Enter(phase.Gemm)
	z := linalg.AtBPackedBudget(bud, c, c, nil, nil, nil)

	// --- Eigensolve: top two eigenvectors of the covariance ---------------
	clk.Enter(phase.Eigensolve)
	vals, axes, err := eigen.TopK(z, opt.Dims)
	if err != nil {
		return nil, nil, err
	}
	rep.Eigenvalues = vals
	rep.KeptColumns = s

	// --- Projection [x, y] = C·Y ------------------------------------------
	clk.Enter(phase.Project)
	layout := &Layout{Coords: linalg.MulSmallBudget(bud, c, axes, nil)}
	rep.Breakdown = breakdown(clk)
	return layout, rep, nil
}
