package linalg

import (
	"repro/internal/graph"
	"repro/internal/parallel"
)

// LapMulVecBudget computes p ← L·x for the graph Laplacian L = D − A
// without materializing L: (L·x)(i) = deg(i)·x(i) − Σ_{j∈Adj(i)} w(i,j)·x(j).
// deg is the weighted degree vector (the dense degrees array the paper
// uses for the diagonal). One call is one SpMV; the irregular reads
// x[g.Adj[k]] are the accesses whose cost tracks the adjacency-gap
// distribution of Figure 2. Each output element is produced by one worker
// with a fixed adjacency-order summation, so results are
// partition-independent.
func LapMulVecBudget(bud parallel.Budget, g *graph.CSR, deg []float64, x, p []float64) {
	checkLen(len(x), g.NumV)
	checkLen(len(p), g.NumV)
	parallel.Blocks(bud.BlockWorkers(g.NumV), g.NumV, spmvArgs{g: g, deg: deg, x: x, p: p}, spmvArgs.rows)
}

// WalkMulVec computes p ← D⁻¹A·x, the transition-matrix product LOBPCG
// applies to find the spectral reference of Figure 1's bottom drawing
// (dominant eigenvectors of the normalized adjacency matrix).
func WalkMulVec(g *graph.CSR, deg []float64, x, p []float64) {
	checkLen(len(x), g.NumV)
	checkLen(len(p), g.NumV)
	parallel.Blocks(parallel.Live().BlockWorkers(g.NumV), g.NumV, spmvArgs{g: g, deg: deg, x: x, p: p, walk: true}, spmvArgs.rows)
}

// spmvArgs is the operands of one LapMulVecBudget (walk false) or
// WalkMulVec (walk true) call.
type spmvArgs struct {
	g         *graph.CSR
	deg, x, p []float64
	walk      bool
}

// rows computes rows [lo, hi) of p: each row's (weighted) neighbor sum in
// adjacency order, then deg·x − sum for L, or sum/deg (0 for an isolated
// vertex) for D⁻¹A.
func (a spmvArgs) rows(_, lo, hi int) {
	g, deg, x, p := a.g, a.deg, a.x, a.p
	for i := lo; i < hi; i++ {
		o0, o1 := g.Offsets[i], g.Offsets[i+1]
		var sum float64
		if g.Weighted() {
			w := g.Weights[o0:o1]
			for k, j := range g.Adj[o0:o1] {
				sum += w[k] * x[j]
			}
		} else {
			for _, j := range g.Adj[o0:o1] {
				sum += x[j]
			}
		}
		switch {
		case !a.walk:
			p[i] = deg[i]*x[i] - sum
		case deg[i] != 0:
			p[i] = sum / deg[i]
		default:
			p[i] = 0
		}
	}
}

// ExplicitLaplacian is the materialized CSR Laplacian used by the
// prior-work baseline. The paper attributes that implementation's memory
// blow-up (it could not run billion-edge graphs in 128 GB) to exactly this
// structure: n+2m explicit nonzeros with values, instead of the dense
// degrees array ParHDE keeps.
type ExplicitLaplacian struct {
	N       int
	Offsets []int64
	Cols    []int32
	Vals    []float64
}

// NewExplicitLaplacian materializes L = D − A for g under bud.
func NewExplicitLaplacian(bud parallel.Budget, g *graph.CSR) *ExplicitLaplacian {
	n := g.NumV
	deg := g.WeightedDegreesIntoBudget(bud, nil)
	offsets := make([]int64, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + (g.Offsets[i+1] - g.Offsets[i]) + 1
	}
	cols := make([]int32, offsets[n])
	vals := make([]float64, offsets[n])
	bud.For(n, func(i int) {
		pos := offsets[i]
		placedDiag := false
		for k := g.Offsets[i]; k < g.Offsets[i+1]; k++ {
			j := g.Adj[k]
			if !placedDiag && int64(j) > int64(i) {
				cols[pos] = int32(i)
				vals[pos] = deg[i]
				pos++
				placedDiag = true
			}
			w := 1.0
			if g.Weighted() {
				w = g.Weights[k]
			}
			cols[pos] = j
			vals[pos] = -w
			pos++
		}
		if !placedDiag {
			cols[pos] = int32(i)
			vals[pos] = deg[i]
		}
	})
	return &ExplicitLaplacian{N: n, Offsets: offsets, Cols: cols, Vals: vals}
}

// MulVec computes p ← L·x through the explicit CSR structure (the generic
// SpMV the prior baseline pays for).
func (l *ExplicitLaplacian) MulVec(bud parallel.Budget, x, p []float64) {
	checkLen(len(x), l.N)
	checkLen(len(p), l.N)
	bud.ForBlock(l.N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var sum float64
			for k := l.Offsets[i]; k < l.Offsets[i+1]; k++ {
				sum += l.Vals[k] * x[l.Cols[k]]
			}
			p[i] = sum
		}
	})
}

// MulDense computes P = L·S column by column.
func (l *ExplicitLaplacian) MulDense(bud parallel.Budget, s *Dense) *Dense {
	p := NewDense(s.Rows, s.Cols)
	for j := 0; j < s.Cols; j++ {
		l.MulVec(bud, s.Col(j), p.Col(j))
	}
	return p
}
