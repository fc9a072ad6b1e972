// Package order implements locality-enhancing vertex orderings. The
// paper's §4.4 ordering study concludes that the initial vertex order
// dominates SpMV performance ("this observation highlights the benefits
// of locality-enhancing vertex orderings"); this package provides two ways
// to *recover* locality for badly ordered inputs: the classic reverse
// Cuthill-McKee bandwidth-reducing order, and a geometric order derived
// from ParHDE's own coordinates via a Hilbert space-filling curve —
// closing the loop on §4.5.4's observation that HDE coordinates feed
// geometric algorithms.
package order

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// RCM computes the reverse Cuthill-McKee ordering: a BFS from a
// low-degree peripheral vertex, visiting neighbors in increasing-degree
// order, reversed at the end. Returns perm with perm[old] = new. The
// ordering minimizes (heuristically) the adjacency bandwidth, which is
// exactly small adjacency gaps in Figure 2's terms.
func RCM(g *graph.CSR) []int32 {
	n := g.NumV
	perm := make([]int32, n)
	visited := make([]bool, n)
	orderList := make([]int32, 0, n)
	// queued marks enqueued vertices across the whole run: components are
	// vertex-disjoint, so one flat []bool replaces the per-component
	// map[int32]bool (and its per-vertex hashing) the original used.
	queued := make([]bool, n)
	queue := make([]int32, 0, 1024)
	// keys is the reusable neighbor-sort buffer: each neighbor packs to
	// degree<<32|id, so an ascending uint64 sort orders by increasing
	// degree with ids breaking ties — no per-vertex slice copy, no
	// sort.Slice closure.
	keys := make([]uint64, 0, 256)
	// Process every component, starting each from its minimum-degree
	// vertex (a cheap peripheral heuristic).
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		// Find the min-degree vertex in this component via a quick scan
		// from the entry point.
		comp := collectComponent(g, int32(start), visited)
		best := comp[0]
		for _, v := range comp {
			if g.Degree(v) < g.Degree(best) || (g.Degree(v) == g.Degree(best) && v < best) {
				best = v
			}
		}
		// BFS with degree-sorted adjacency expansion.
		queued[best] = true
		queue = append(queue[:0], best)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			orderList = append(orderList, v)
			keys = keys[:0]
			for _, u := range g.Neighbors(v) {
				if !queued[u] {
					keys = append(keys, uint64(g.Degree(u))<<32|uint64(uint32(u)))
				}
			}
			slices.Sort(keys)
			for _, k := range keys {
				u := int32(uint32(k))
				// Recheck in case the adjacency list carries duplicates.
				if !queued[u] {
					queued[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	// Reverse.
	for i, v := range orderList {
		perm[v] = int32(n - 1 - i)
	}
	return perm
}

// collectComponent marks and returns all vertices reachable from start.
func collectComponent(g *graph.CSR, start int32, visited []bool) []int32 {
	visited[start] = true
	comp := []int32{start}
	for qi := 0; qi < len(comp); qi++ {
		for _, u := range g.Neighbors(comp[qi]) {
			if !visited[u] {
				visited[u] = true
				comp = append(comp, u)
			}
		}
	}
	return comp
}

// HilbertFromLayout orders vertices along a Hilbert space-filling curve
// over their 2-D layout coordinates: vertices drawn near each other get
// nearby ids, so graph locality (which a good drawing exposes) becomes
// memory locality. order is the curve resolution in bits per axis
// (default 12 → a 4096×4096 grid). The grid spans the finite coordinates'
// bounding box; a vertex with a non-finite coordinate goes after every
// other.
func HilbertFromLayout(l *core.Layout, order int) ([]int32, error) {
	if l.Dims() < 2 {
		return nil, fmt.Errorf("order: Hilbert ordering needs a 2-D layout")
	}
	if order <= 0 {
		order = 12
	}
	if order > 15 {
		order = 15
	}
	n := l.NumVertices()
	xs, ys := l.X(), l.Y()
	minX, maxX := core.FiniteBounds(xs)
	minY, maxY := core.FiniteBounds(ys)
	span := math.Max(maxX-minX, maxY-minY)
	if !(span > 0) {
		span = 1
	}
	side := int32(1) << uint(order)
	type hv struct {
		h uint64
		v int32
	}
	keys := make([]hv, n)
	for v := 0; v < n; v++ {
		x, y := (xs[v]-minX)/span, (ys[v]-minY)/span
		h := uint64(math.MaxUint64)
		if x >= 0 && x <= 1 && y >= 0 && y <= 1 { // false for NaN and ±Inf
			h = hilbertD(order, int32(x*float64(side-1)), int32(y*float64(side-1)))
		}
		keys[v] = hv{h, int32(v)}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].h != keys[b].h {
			return keys[a].h < keys[b].h
		}
		return keys[a].v < keys[b].v
	})
	perm := make([]int32, n)
	for newID, k := range keys {
		perm[k.v] = int32(newID)
	}
	return perm, nil
}

// hilbertD converts (x, y) to its distance along the order-bit Hilbert
// curve (the standard bit-twiddling conversion).
func hilbertD(order int, x, y int32) uint64 {
	var d uint64
	for s := int32(1) << uint(order-1); s > 0; s /= 2 {
		var rx, ry int32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		// Rotate quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return d
}

// Bandwidth returns the maximum |u − v| over edges — the quantity RCM
// minimizes, and an upper bound on every adjacency gap.
func Bandwidth(g *graph.CSR) int64 {
	var bw int64
	for v := int32(0); int(v) < g.NumV; v++ {
		for _, u := range g.Neighbors(v) {
			if d := int64(u) - int64(v); d > bw {
				bw = d
			}
		}
	}
	return bw
}
