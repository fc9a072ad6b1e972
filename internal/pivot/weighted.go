package pivot

import (
	"context"

	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/sssp"
)

// PhaseWeighted is StreamWeighted materialized into the columns of b.
func PhaseWeighted(g *graph.CSR, b *linalg.Dense, start int32, delta float64, onTraversal, onOther func(f func())) PhaseStats {
	st, _ := StreamWeighted(context.Background(), g, b.Cols, start, delta, fill(b), onTraversal, onOther)
	return st
}

// StreamWeighted is the weighted-graph BFS phase of §3.3: Δ-stepping SSSP
// replaces each parallel BFS, with the same farthest-first source
// selection over real-valued distances, and each distance vector is
// emitted as it is (unreached vertices read as +Inf). delta ≤ 0 selects
// sssp.SuggestDelta's heuristic. ctx is checked before every traversal.
func StreamWeighted(ctx context.Context, g *graph.CSR, s int, start int32, delta float64, emit Emit, onTraversal, onOther func(f func())) (PhaseStats, error) {
	if onTraversal == nil {
		onTraversal = func(f func()) { f() }
	}
	if onOther == nil {
		onOther = func(f func()) { f() }
	}
	if delta <= 0 {
		delta = sssp.SuggestDelta(g)
	}
	n := g.NumV
	dist := make([]float64, n)
	dmin := make([]float64, n)
	parallel.For(n, func(i int) { dmin[i] = sssp.Inf })

	st := PhaseStats{Sources: make([]int32, 0, s)}
	src := start
	for i := 0; i < s; i++ {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		st.Sources = append(st.Sources, src)
		onTraversal(func() {
			ds := sssp.DeltaStepping(g, src, delta, dist)
			st.ScannedEdges += ds.EdgesScanned
		})
		onOther(func() {
			parallel.ForBlock(n, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					if dist[j] < dmin[j] {
						dmin[j] = dist[j]
					}
				}
			})
			src = int32(parallel.MaxIndexFloat64(n, func(j int) float64 { return dmin[j] }))
		})
		if err := emit(i, dist); err != nil {
			return st, err
		}
	}
	return st, nil
}
