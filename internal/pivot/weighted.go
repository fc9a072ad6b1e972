package pivot

import (
	"context"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/phase"
	"repro/internal/sssp"
)

// StreamWeighted is the weighted-graph BFS phase of §3.3: Δ-stepping SSSP
// replaces each parallel BFS, with the same farthest-first source
// selection over real-valued distances, and each distance vector is
// emitted as it is (unreached vertices read as +Inf). delta ≤ 0 selects
// sssp.SuggestDelta's heuristic. Like Stream, it runs on one snapshot of
// bud, checks ctx before every traversal and times itself on clk.
func StreamWeighted(ctx context.Context, bud parallel.Budget, g *graph.CSR, s int, start int32, delta float64, emit Emit, clk *phase.Clock) (PhaseStats, error) {
	clk.Enter(phase.BFSOther)
	if !bud.Fixed() {
		bud = parallel.SnapshotBudget()
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
	// MaxIndex's key, built once: d(j) ← min(d(j), dist(j)), and the
	// farthest vertex from all previous sources (called once per j).
	key := func(j int) float64 {
		if dist[j] < dmin[j] {
			dmin[j] = dist[j]
		}
		return dmin[j]
	}
	for i := 0; i < s; i++ {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		st.Sources = append(st.Sources, src)
		clk.Enter(phase.BFSTraversal)
		st.ScannedEdges += sssp.DeltaStepping(bud, g, src, delta, dist).EdgesScanned
		clk.Enter(phase.BFSOther)
		src = int32(parallel.MaxIndex(bud, n, key))
		if err := emit(i, dist); err != nil {
			return st, err
		}
	}
	return st, nil
}
