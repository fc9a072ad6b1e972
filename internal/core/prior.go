package core

import (
	"fmt"
	"math"

	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/parallel"
)

// Prior reimplements the prior parallel HDE of Kirmani and Madduri
// ([27, 33] in the paper) faithfully enough to reproduce Table 3's
// comparison. It shares ParHDE's three stages but keeps the three
// inefficiencies §4.2 identifies: (i) the BFS is sequential ("does not
// use parallel BFS"), with sequential source selection; (ii) the graph
// Laplacian is explicitly materialized, inflating the peak memory
// footprint by n+2m stored values plus indices; (iii) the LS product runs
// through the generic CSR SpMM over that structure instead of the fused
// degrees-array kernel. Dense matrix products remain parallel, as they
// were in the Eigen-based original.
func Prior(g *graph.CSR, opt Options) (*Layout, *Report, error) {
	opt = opt.withDefaults()
	if g.NumV < 2 {
		return nil, nil, fmt.Errorf("core: graph has %d vertices, need at least 2", g.NumV)
	}
	if g.Weighted() {
		return nil, nil, fmt.Errorf("core: the prior baseline is defined for unweighted graphs (its traversal is a plain BFS)")
	}
	rep := &Report{}
	bd := &rep.Breakdown
	n := g.NumV
	s := opt.Subspace
	if s >= n {
		s = n - 1
	}
	var layout *Layout
	var err error
	timed(&bd.Total, func() {
		// --- BFS phase: sequential traversal, sequential selection --------
		b := linalg.NewDense(n, s)
		dist := make([]int32, n)
		dmin := make([]int32, n)
		for i := range dmin {
			dmin[i] = int32(1) << 30
		}
		src := int32(splitmix(opt.Seed) % uint64(n))
		for i := 0; i < s; i++ {
			rep.Sources = append(rep.Sources, src)
			timed(&bd.BFSTraversal, func() { bfs.Serial(g, src, dist) })
			timed(&bd.BFSOther, func() {
				col := b.Col(i)
				best := 0
				for j := 0; j < n; j++ {
					col[j] = float64(dist[j])
					if dist[j] < dmin[j] {
						dmin[j] = dist[j]
					}
					if dmin[j] > dmin[best] {
						best = j
					}
				}
				src = int32(best)
			})
		}
		if err = checkConnected(b.Col(0), rep.Sources[0]); err != nil {
			return
		}

		// --- DOrtho phase: sequential Gram-Schmidt -------------------------
		deg := g.WeightedDegrees()
		var sMat *linalg.Dense
		var dNorms []float64
		timed(&bd.DOrtho, func() {
			sMat, dNorms = serialDOrtho(b, deg)
		})
		if sMat.Cols < opt.Dims {
			err = fmt.Errorf("core: only %d independent distance vectors", sMat.Cols)
			return
		}

		// --- Explicit Laplacian (the memory blow-up Table 3 charges for) ---
		var lap *linalg.ExplicitLaplacian
		timed(&bd.LapBuild, func() { lap = linalg.NewExplicitLaplacian(g) })

		// --- TripleProd through the explicit structure ----------------------
		var p *linalg.Dense
		timed(&bd.LS, func() { p = lap.MulDense(sMat) })
		var z *linalg.Dense
		timed(&bd.Gemm, func() { z = linalg.AtBPackedBudget(parallel.Live(), sMat, p, nil, nil, nil) })

		// --- Eigensolve and projection --------------------------------------
		var axes *linalg.Dense
		timed(&bd.Eigensolve, func() {
			axes, rep.Eigenvalues, err = projectedAxes(z, dNorms, opt.Dims, nil)
		})
		if err != nil {
			return
		}
		timed(&bd.Project, func() {
			layout = &Layout{Coords: linalg.MulSmallBudget(parallel.Live(), sMat, axes, nil)}
		})
	})
	if err != nil {
		return nil, nil, err
	}
	return layout, rep, nil
}

// serialDOrtho is the single-threaded Modified Gram-Schmidt with D-inner
// products used by the prior baseline (its vector kernels ran through
// Eigen without OpenMP parallelism).
func serialDOrtho(b *linalg.Dense, deg []float64) (*linalg.Dense, []float64) {
	n, s := b.Rows, b.Cols
	s0 := make([]float64, n)
	inv := 1 / math.Sqrt(float64(n))
	for i := range s0 {
		s0[i] = inv
	}
	kept := [][]float64{s0}
	dn := []float64{serialDDot(s0, deg, s0)}
	work := make([]float64, n)
	var outCols [][]float64
	var outDN []float64
	for c := 0; c < s; c++ {
		copy(work, b.Col(c))
		nrm := serialNorm(work)
		if nrm <= 1e-3 {
			continue
		}
		for i := range work {
			work[i] /= nrm
		}
		for j, kc := range kept {
			coef := serialDDot(kc, deg, work) / dn[j]
			for i := range work {
				work[i] -= coef * kc[i]
			}
		}
		res := serialNorm(work)
		if res <= 1e-3 {
			continue
		}
		col := make([]float64, n)
		for i := range work {
			col[i] = work[i] / res
		}
		kept = append(kept, col)
		d := serialDDot(col, deg, col)
		dn = append(dn, d)
		outCols = append(outCols, col)
		outDN = append(outDN, d)
	}
	out := linalg.NewDense(n, len(outCols))
	for j, col := range outCols {
		copy(out.Col(j), col)
	}
	return out, outDN
}

func serialDDot(x, d, y []float64) float64 {
	var sum float64
	for i := range x {
		sum += x[i] * d[i] * y[i]
	}
	return sum
}

func serialNorm(x []float64) float64 {
	var sum float64
	for i := range x {
		sum += x[i] * x[i]
	}
	return math.Sqrt(sum)
}
