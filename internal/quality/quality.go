// Package quality implements the standard drawing-quality measures of the
// experimental literature the paper leans on (Brandes & Pich's study [6],
// Hachul & Jünger [21]): neighborhood preservation (do graph neighbors
// land nearby in the picture?) and sampled stress. Together with
// core.Evaluate's Hall energy and core.DistanceCorrelation they give a
// quantitative stand-in for the paper's visual drawing comparisons.
package quality

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// NeighborhoodPreservation computes the mean precision@k between graph
// neighborhoods and layout neighborhoods over a deterministic sample of
// vertices: for each sampled v, the k vertices closest in the drawing are
// compared with v's k graph-nearest vertices (BFS order, ties broken by
// id). Returns a value in [0, 1]; 1 means every drawn neighborhood is a
// graph neighborhood.
func NeighborhoodPreservation(g *graph.CSR, l *core.Layout, k, sample int, seed uint64) float64 {
	n := g.NumV
	if n < 2 || k < 1 {
		return 0
	}
	if k > n-1 {
		k = n - 1
	}
	if sample > n {
		sample = n
	}
	perm := graph.RandomPermutation(n, seed)
	var total float64
	dist := make([]int32, n)
	for si := 0; si < sample; si++ {
		v := perm[si]
		graphNear := graphKNearest(g, v, k, dist)
		layoutNear := layoutKNearest(l, v, k)
		inter := 0
		for u := range layoutNear {
			if graphNear[u] {
				inter++
			}
		}
		total += float64(inter) / float64(k)
	}
	return total / float64(sample)
}

// graphKNearest returns the k vertices (excluding v) closest to v in hop
// distance, ties broken by vertex id — computed with a truncated BFS.
func graphKNearest(g *graph.CSR, v int32, k int, dist []int32) map[int32]bool {
	for i := range dist {
		dist[i] = -1
	}
	dist[v] = 0
	queue := []int32{v}
	out := make(map[int32]bool, k)
	for len(queue) > 0 && len(out) < k {
		var next []int32
		// Sort current level by id for deterministic tie-breaking.
		sort.Slice(queue, func(a, b int) bool { return queue[a] < queue[b] })
		for _, u := range queue {
			for _, w := range g.Neighbors(u) {
				if dist[w] < 0 {
					dist[w] = dist[u] + 1
					next = append(next, w)
				}
			}
		}
		sort.Slice(next, func(a, b int) bool { return next[a] < next[b] })
		for _, w := range next {
			if len(out) == k {
				break
			}
			out[w] = true
		}
		queue = next
	}
	return out
}

// layoutKNearest returns the k vertices closest to v in the drawing,
// via a uniform grid over the unit-normalized coordinates.
func layoutKNearest(l *core.Layout, v int32, k int) map[int32]bool {
	n := l.NumVertices()
	x, y := l.X(), l.Y()
	// Normalize bounds for binning.
	minX, maxX := minMax(x)
	minY, maxY := minMax(y)
	spanX := maxX - minX
	spanY := maxY - minY
	if spanX == 0 {
		spanX = 1
	}
	if spanY == 0 {
		spanY = 1
	}
	cells := int(math.Sqrt(float64(n))) + 1
	if cells > 512 {
		cells = 512
	}
	cellOf := func(u int32) (int, int) {
		cx := int((x[u] - minX) / spanX * float64(cells-1))
		cy := int((y[u] - minY) / spanY * float64(cells-1))
		return cx, cy
	}
	grid := make(map[[2]int][]int32, n/4)
	for u := int32(0); int(u) < n; u++ {
		cx, cy := cellOf(u)
		grid[[2]int{cx, cy}] = append(grid[[2]int{cx, cy}], u)
	}
	type cand struct {
		u int32
		d float64
	}
	var cands []cand
	cx, cy := cellOf(v)
	for ring := 0; ring < cells; ring++ {
		// Collect the ring's cells.
		added := false
		for dx := -ring; dx <= ring; dx++ {
			for dy := -ring; dy <= ring; dy++ {
				if maxAbs(dx, dy) != ring {
					continue
				}
				for _, u := range grid[[2]int{cx + dx, cy + dy}] {
					if u == v {
						continue
					}
					ddx, ddy := x[u]-x[v], y[u]-y[v]
					cands = append(cands, cand{u, ddx*ddx + ddy*ddy})
					added = true
				}
			}
		}
		// Stop once we have comfortably more than k candidates and one
		// further ring of margin (grid distance lower-bounds true
		// distance within a ring).
		if len(cands) >= 3*k && added {
			break
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d < cands[b].d
		}
		return cands[a].u < cands[b].u
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make(map[int32]bool, len(cands))
	for _, c := range cands {
		out[c.u] = true
	}
	return out
}

// SampledStress estimates the normalized stress of a layout from BFS
// distances of `sources` deterministically sampled vertices: over all
// pairs (s, v) with hop distance d > 0, with the classic 1/d² weights
// and the optimal uniform scale α = Σ wdr / Σ wr² applied to the
// drawing, it returns (1/|P|) Σ w(d − αr)². The α fit makes the measure
// scale-invariant, so layouts of different overall size are comparable;
// 0 is a perfect embedding of the sampled distances. Vertices
// unreachable from a source are skipped.
func SampledStress(g *graph.CSR, l *core.Layout, sources int, seed uint64) float64 {
	n := g.NumV
	if n < 2 || sources < 1 {
		return 0
	}
	if sources > n {
		sources = n
	}
	perm := graph.RandomPermutation(n, seed)
	p := l.Dims()
	cols := make([][]float64, p)
	for j := 0; j < p; j++ {
		cols[j] = l.Coords.Col(j)
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	var swdr, swrr float64 // Σ w·d·r, Σ w·r²
	pairs := 0
	for si := 0; si < sources; si++ {
		s := perm[si]
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.Neighbors(u) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for v := int32(0); int(v) < n; v++ {
			d := dist[v]
			if d <= 0 {
				continue
			}
			var rr float64
			for j := 0; j < p; j++ {
				diff := cols[j][v] - cols[j][s]
				rr += diff * diff
			}
			r := math.Sqrt(rr)
			fd := float64(d)
			w := 1 / (fd * fd)
			swdr += w * fd * r
			swrr += w * r * r
			pairs++
		}
	}
	if pairs == 0 || swrr == 0 {
		return 0
	}
	// With w·d² = 1, Σ w(d − αr)² = |P| − 2α·Σwdr + α²·Σwr², which the
	// optimal α = Σwdr / Σwr² brings to |P| − (Σwdr)²/Σwr².
	return (float64(pairs) - swdr*swdr/swrr) / float64(pairs)
}

func minMax(v []float64) (float64, float64) {
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		if x < mn {
			mn = x
		}
		if x > mx {
			mx = x
		}
	}
	return mn, mx
}

func maxAbs(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
}
