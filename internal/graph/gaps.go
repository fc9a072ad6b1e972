package graph

import "repro/internal/parallel"

// GapStats summarizes the adjacency-list gap distribution of a graph
// (ICPP'20 Figure 2). For a vertex u with sorted adjacencies v1 < v2 < …,
// the gaps are v2−v1, v3−v2, …; across the whole graph there are exactly
// 2m − n′ gaps where n′ is the number of vertices with nonzero degree.
// Small gaps mean accesses of the form S[v], v ∈ Adj(u) touch nearby
// memory — the property that makes sk-2005's LS step anomalously fast.
type GapStats struct {
	Count int64   // total number of gaps (2m − #nonzero-degree vertices)
	Mean  float64 // arithmetic mean gap
}

// Gaps computes, for every consecutive pair in every (sorted) adjacency
// list, the difference between neighbor ids, and feeds each gap to sink.
// sink is called concurrently from multiple goroutines and must be
// thread-safe (the Fibonacci-binning histogram uses atomic counters).
func Gaps(g *CSR, sink func(gap int64)) {
	parallel.Live().ForBlock(g.NumV, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			adj := g.Adj[g.Offsets[v]:g.Offsets[v+1]]
			for k := 1; k < len(adj); k++ {
				sink(int64(adj[k]) - int64(adj[k-1]))
			}
		}
	})
}

// GapSummary returns aggregate gap statistics without visiting each gap.
func GapSummary(g *CSR) GapStats {
	bud := parallel.Live()
	count := parallel.Sum(bud, g.NumV, func(v int) int64 {
		return max(g.Offsets[v+1]-g.Offsets[v]-1, 0)
	})
	// The gaps of a sorted list telescope to its last minus its first id.
	sum := parallel.Sum(bud, g.NumV, func(v int) int64 {
		if lo, hi := g.Offsets[v], g.Offsets[v+1]; hi-lo > 1 {
			return int64(g.Adj[hi-1]) - int64(g.Adj[lo])
		}
		return 0
	})
	gs := GapStats{Count: count}
	if count > 0 {
		gs.Mean = float64(sum) / float64(count)
	}
	return gs
}
