package pivot

import (
	"context"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/sssp"
)

// StreamWeighted is the weighted-graph BFS phase of §3.3: Δ-stepping SSSP
// replaces each parallel BFS, with the same farthest-first source
// selection over real-valued distances, and each distance vector is
// emitted as it is (unreached vertices read as +Inf). delta ≤ 0 selects
// sssp.SuggestDelta's heuristic. Like Stream, it runs on one snapshot of
// bud and checks ctx before every traversal.
func StreamWeighted(ctx context.Context, bud parallel.Budget, g *graph.CSR, s int, start int32, delta float64, emit Emit, onTraversal, onOther func(f func())) (PhaseStats, error) {
	if !bud.Fixed() {
		bud = parallel.SnapshotBudget()
	}
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
	bud.For(n, func(i int) { dmin[i] = sssp.Inf })

	st := PhaseStats{Sources: make([]int32, 0, s)}
	src := start
	// The timing hooks' closures are built once, not once per pivot.
	traverse := func() {
		ds := sssp.DeltaStepping(bud, g, src, delta, dist)
		st.ScannedEdges += ds.EdgesScanned
	}
	other := func() {
		// One pass: d(j) ← min(d(j), dist(j)) and the farthest vertex
		// from all previous sources (MaxIndex calls key once per j).
		src = int32(parallel.MaxIndex(bud, n, func(j int) float64 {
			if dist[j] < dmin[j] {
				dmin[j] = dist[j]
			}
			return dmin[j]
		}))
	}
	for i := 0; i < s; i++ {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		st.Sources = append(st.Sources, src)
		onTraversal(traverse)
		onOther(other)
		if err := emit(i, dist); err != nil {
			return st, err
		}
	}
	return st, nil
}
