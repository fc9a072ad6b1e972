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
	bud := parallel.Live()
	bud.For(n, func(i int) { dmin[i] = sssp.Inf })

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
			// One pass: d(j) ← min(d(j), dist(j)) and the farthest vertex
			// from all previous sources (MaxIndex calls key once per j).
			src = int32(parallel.MaxIndex(bud, n, func(j int) float64 {
				if dist[j] < dmin[j] {
					dmin[j] = dist[j]
				}
				return dmin[j]
			}))
		})
		if err := emit(i, dist); err != nil {
			return st, err
		}
	}
	return st, nil
}
