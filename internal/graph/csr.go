// Package graph provides the compressed-sparse-row graph representation and
// the preprocessing pipeline the paper applies to every input: symmetrize,
// drop self loops and parallel edges, extract the largest connected
// component, and relabel vertices contiguously while preserving the
// original implied ordering (ICPP'20 §4.1).
package graph

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/parallel"
)

// CSR is an undirected simple graph in compressed-sparse-row form. Each
// undirected edge {u,v} is stored twice, once in each endpoint's adjacency
// list, and adjacency lists are sorted by neighbor id.
//
// Weights is nil for unweighted graphs (the common case the paper
// optimizes for: no weights stored, Laplacian never materialized). When
// non-nil, Weights[k] is the weight of the arc Adj[k] and the graph is
// treated as weighted, with HDE's similarity interpretation (heavier edge =
// more similar).
type CSR struct {
	NumV    int
	Offsets []int64 // len NumV+1; adjacency of v is Adj[Offsets[v]:Offsets[v+1]]
	Adj     []int32
	Weights []float64 // nil for unweighted graphs; else len(Adj)
}

// NumEdges returns m, the number of undirected edges.
func (g *CSR) NumEdges() int64 { return int64(len(g.Adj)) / 2 }

// Degree returns the number of neighbors of v.
func (g *CSR) Degree(v int32) int32 {
	return int32(g.Offsets[v+1] - g.Offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's storage and must not be modified.
func (g *CSR) Neighbors(v int32) []int32 {
	return g.Adj[g.Offsets[v]:g.Offsets[v+1]]
}

// NeighborWeights returns the weights parallel to Neighbors(v). It must
// only be called on weighted graphs.
func (g *CSR) NeighborWeights(v int32) []float64 {
	return g.Weights[g.Offsets[v]:g.Offsets[v+1]]
}

// Weighted reports whether the graph carries edge weights.
func (g *CSR) Weighted() bool { return g.Weights != nil }

// WeightedDegrees returns the weighted degree (sum of incident edge
// weights) of every vertex — the diagonal of the degrees matrix D. For
// unweighted graphs this is the plain degree. The computation is
// parallelized over vertices.
func (g *CSR) WeightedDegrees() []float64 {
	return g.WeightedDegreesInto(nil)
}

// WeightedDegreesInto is WeightedDegrees writing into buf when its
// capacity suffices (allocating otherwise), so a pooled caller re-pays no
// O(n) allocation per run.
func (g *CSR) WeightedDegreesInto(buf []float64) []float64 {
	return g.WeightedDegreesIntoBudget(parallel.Live(), buf)
}

// WeightedDegreesIntoBudget is WeightedDegreesInto under an explicit
// worker budget. Each vertex's degree is summed by one worker in
// adjacency order, so the result is partition-independent.
func (g *CSR) WeightedDegreesIntoBudget(bud parallel.Budget, buf []float64) []float64 {
	d := buf
	if cap(d) < g.NumV {
		d = make([]float64, g.NumV)
	}
	d = d[:g.NumV]
	parallel.Blocks(bud.BlockWorkers(g.NumV), g.NumV, degArgs{g, d}, degArgs.block)
	return d
}

// degArgs is the operands of one WeightedDegreesIntoBudget call.
type degArgs struct {
	g *CSR
	d []float64
}

func (a degArgs) block(_, lo, hi int) {
	g, d := a.g, a.d
	for i := lo; i < hi; i++ {
		o0, o1 := g.Offsets[i], g.Offsets[i+1]
		if g.Weights == nil {
			d[i] = float64(o1 - o0)
			continue
		}
		var s float64
		for _, w := range g.Weights[o0:o1] {
			s += w
		}
		d[i] = s
	}
}

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
func (g *CSR) MaxDegree() int32 {
	if g.NumV == 0 {
		return 0
	}
	v := parallel.MaxIndex(parallel.Live(), g.NumV, func(i int) int32 {
		return int32(g.Offsets[i+1] - g.Offsets[i])
	})
	return g.Degree(int32(v))
}

// Validate checks the CSR structural invariants: monotone offsets, sorted
// adjacency, in-range neighbor ids, no self loops, no duplicate neighbors,
// and symmetry (u ∈ Adj(v) ⇔ v ∈ Adj(u), with equal weights when
// weighted). It is used by tests and by loaders of untrusted input. Both
// passes are split by vertex range across bud's workers; the fault
// reported is the one a serial walk meets first, whatever the budget.
func (g *CSR) Validate(bud parallel.Budget) error {
	// A symmetry range costs a cursor per vertex, so a range takes at
	// least 8 arcs per vertex.
	ranges := min(bud.Workers(), max(1, len(g.Adj)/(8*max(g.NumV, 1))))
	return g.validate(bud.BlockWorkers(g.NumV), ranges)
}

// validate is Validate with the structural check split into blocks of
// rows and the symmetry walk into ranges.
func (g *CSR) validate(blocks, ranges int) error {
	if len(g.Offsets) != g.NumV+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.Offsets), g.NumV+1)
	}
	if g.Offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.Offsets[0])
	}
	if g.Offsets[g.NumV] != int64(len(g.Adj)) {
		return fmt.Errorf("graph: offsets[n] = %d, want %d", g.Offsets[g.NumV], len(g.Adj))
	}
	if g.Weights != nil && len(g.Weights) != len(g.Adj) {
		return fmt.Errorf("graph: weights length %d, want %d", len(g.Weights), len(g.Adj))
	}
	// A vertex's checks read only its own row, so the lowest block's first
	// fault is the serial loop's.
	errs := make([]error, blocks)
	parallel.ForBlockIndexed(blocks, g.NumV, func(b, lo, hi int) { errs[b] = g.checkRows(lo, hi) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return g.checkSymmetry(ranges)
}

// checkRows is Validate's structural check of rows [lo, hi).
func (g *CSR) checkRows(lo, hi int) error {
	for v := lo; v < hi; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		if g.Offsets[v] < 0 || g.Offsets[v+1] > int64(len(g.Adj)) {
			return fmt.Errorf("graph: offsets of vertex %d out of range", v)
		}
		adj := g.Adj[g.Offsets[v]:g.Offsets[v+1]]
		for k, u := range adj {
			if u < 0 || int(u) >= g.NumV {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, u)
			}
			if int(u) == v {
				return fmt.Errorf("graph: self loop at vertex %d", v)
			}
			if k > 0 && adj[k-1] >= u {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted at position %d", v, k)
			}
		}
	}
	return nil
}

// checkSymmetry checks that every arc has a reverse arc with matching
// weight, walking p ranges of rows, of about equal arc counts, at once.
// Rows are sorted, so visiting v in ascending order meets the reverse
// arcs u->v of each row u in its own order: a range [a, b) keeps a cursor
// per row u at the next arc of u's row no earlier v of the range has
// matched, starting at u's first arc to a vertex ≥ a, and each arc v->u
// must find it pointing at v. Each arc claims a distinct reverse arc,
// within its range and so across ranges, so when all match, every arc
// has been claimed. The verdict thus does not depend on p. Nor does the
// fault reported: range 0's walk is a serial walk's first part, and when
// a later range failed, range 0's walk runs on to the serial walk's first
// fault.
func (g *CSR) checkSymmetry(p int) error {
	cursors := make([][]int64, p)
	errs := make([]error, p)
	ends := make([]int, p)
	m := int64(len(g.Adj))
	cut := func(r int) int {
		return sort.Search(g.NumV, func(v int) bool { return g.Offsets[v] >= int64(r)*m/int64(p) })
	}
	parallel.ForBlockIndexed(p, p, func(r, _, _ int) {
		lo, hi := cut(r), g.NumV
		if r+1 < p {
			hi = cut(r + 1)
		}
		if r > 0 && lo == hi {
			return
		}
		cur := make([]int64, g.NumV)
		if r == 0 {
			copy(cur, g.Offsets)
		} else {
			for u := range cur {
				row := g.Adj[g.Offsets[u]:g.Offsets[u+1]]
				i, _ := slices.BinarySearch(row, int32(lo))
				cur[u] = g.Offsets[u] + int64(i)
			}
		}
		cursors[r], ends[r] = cur, hi
		errs[r] = g.walkSymmetry(cur, lo, hi)
	})
	for r, err := range errs {
		if err != nil {
			if r > 0 {
				if first := g.walkSymmetry(cursors[0], ends[0], g.NumV); first != nil {
					return first
				}
			}
			return err
		}
	}
	return nil
}

// walkSymmetry is checkSymmetry's walk of rows [lo, hi) from cursors cur.
func (g *CSR) walkSymmetry(cur []int64, lo, hi int) error {
	for v := lo; v < hi; v++ {
		for k := g.Offsets[v]; k < g.Offsets[v+1]; k++ {
			u := g.Adj[k]
			j := cur[u]
			if j == g.Offsets[u+1] || g.Adj[j] > int32(v) {
				return fmt.Errorf("graph: missing reverse arc %d->%d", u, v)
			}
			if g.Adj[j] < int32(v) {
				// Row g.Adj[j], visited already, has no arc to u.
				return fmt.Errorf("graph: missing reverse arc %d->%d", g.Adj[j], u)
			}
			if g.Weights != nil && g.Weights[j] != g.Weights[k] {
				return fmt.Errorf("graph: asymmetric weight on edge {%d,%d}", v, u)
			}
			cur[u] = j + 1
		}
	}
	return nil
}

// findArc locates the arc u->w by binary search over u's sorted adjacency,
// returning its index into Adj.
func (g *CSR) findArc(u, w int32) (int64, bool) {
	lo, hi := g.Offsets[u], g.Offsets[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case g.Adj[mid] < w:
			lo = mid + 1
		case g.Adj[mid] > w:
			hi = mid
		default:
			return mid, true
		}
	}
	return 0, false
}

// HasEdge reports whether {u, v} is an edge.
func (g *CSR) HasEdge(u, v int32) bool {
	if u == v || int(u) >= g.NumV || int(v) >= g.NumV || u < 0 || v < 0 {
		return false
	}
	// Search the shorter adjacency list.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	_, ok := g.findArc(u, v)
	return ok
}
