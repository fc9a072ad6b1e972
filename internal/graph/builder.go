package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/parallel"
)

// Edge is one endpoint pair of an input edge list. Direction is ignored
// during preprocessing (the paper symmetrizes directed inputs). W is the
// similarity weight; it is ignored when building an unweighted graph.
type Edge struct {
	U, V int32
	W    float64
}

// BuildOptions controls preprocessing performed by FromEdges.
type BuildOptions struct {
	// Weighted keeps edge weights. Parallel edges are merged by keeping
	// the maximum similarity weight.
	Weighted bool
	// KeepAllComponents skips the largest-connected-component extraction.
	KeepAllComponents bool
	// Budget is the worker budget every pass of the build (and of Read)
	// runs on; the zero value is live (GOMAXPROCS). The graph built does
	// not depend on it, bit for bit.
	Budget parallel.Budget
}

// FromEdges builds a preprocessed CSR graph from an arbitrary edge list,
// applying the paper's §4.1 pipeline: ignore direction, drop self loops,
// merge parallel edges, and (unless disabled) extract the largest connected
// component with an order-preserving contiguous relabeling. An edge out of
// [0, n), or a weighted build's non-finite or negative weight, is refused:
// the first such edge in list order is the one reported.
func FromEdges(n int, edges []Edge, opt BuildOptions) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	g, err := assemble(n, edges, opt.Weighted, opt.Budget)
	if err != nil {
		return nil, err
	}
	if !opt.KeepAllComponents {
		g = largestComponent(g, opt.Budget)
	}
	return g, nil
}

// edgeError words why FromEdges refuses e, or is nil when it does not.
func edgeError(e Edge, n int, weighted bool) error {
	switch {
	case e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n:
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", e.U, e.V, n)
	case weighted && (math.IsNaN(e.W) || math.IsInf(e.W, 0)):
		return fmt.Errorf("graph: non-finite weight %g on edge {%d,%d}", e.W, e.U, e.V)
	case weighted && e.W < 0:
		return fmt.Errorf("graph: negative weight %g on edge {%d,%d}", e.W, e.U, e.V)
	}
	return nil
}

// arc is one weighted adjacency entry while a row is sorted.
type arc struct {
	to int32
	w  float64
}

// assemble checks the edge list, then symmetrizes, deduplicates and packs
// it into CSR form on bud's workers. The list is cut into contiguous
// chunks. Each chunk checks its edges and counts its arcs per tail; a
// tail's row then gives each chunk a run of slots, in chunk order, and
// each chunk fills its runs in list order. Every arc so lands where a
// serial fill in list order puts it: a row of a sorted list comes out
// sorted, and the weighted max-merge meets duplicates in list order. The
// sort/dedupe pass is split by vertices. A vertex with 2^31 or more arcs
// is refused.
func assemble(n int, edges []Edge, weighted bool, bud parallel.Budget) (*CSR, error) {
	// A chunk's count row costs 4n bytes, so a chunk takes at least 4n
	// edges, and at most 4 rows take no more than the 16n bytes of a
	// serial fill's count and cursor arrays.
	p := min(bud.BlockWorkers(len(edges)), max(1, len(edges)/max(4*n, 1)), 4)
	// Row c of cur counts chunk c's arcs out of each vertex, then holds
	// where in the vertex's row the chunk's next arc goes.
	cur := make([]int32, p*n)
	errs := make([]error, p)
	parallel.ForBlockIndexed(p, len(edges), func(c, lo, hi int) {
		row := cur[c*n : (c+1)*n]
		for _, e := range edges[lo:hi] {
			if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n ||
				weighted && !(e.W >= 0 && e.W <= math.MaxFloat64) {
				errs[c] = edgeError(e, n, weighted)
				return
			}
			if e.U != e.V {
				row[e.U]++
				row[e.V]++
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	offsets := make([]int64, n+1)
	parallel.ForBlockIndexed(p, n, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			var d int64
			for c := 0; c < p; c++ {
				k := cur[c*n+v]
				cur[c*n+v] = int32(d)
				d += int64(k)
				if k < 0 || d > math.MaxInt32 { // a count wrapped
					d = -1
					break
				}
			}
			offsets[v+1] = d
		}
	})
	for v := 0; v < n; v++ {
		if offsets[v+1] < 0 {
			return nil, fmt.Errorf("graph: vertex %d has 2^31 or more arcs", v)
		}
		offsets[v+1] += offsets[v]
	}
	adj := make([]int32, offsets[n])
	var wts []float64
	if weighted {
		wts = make([]float64, offsets[n])
	}
	parallel.ForBlockIndexed(p, len(edges), func(c, lo, hi int) {
		next := cur[c*n : (c+1)*n]
		for _, e := range edges[lo:hi] {
			if e.U == e.V {
				continue
			}
			ku, kv := offsets[e.U]+int64(next[e.U]), offsets[e.V]+int64(next[e.V])
			next[e.U]++
			next[e.V]++
			adj[ku], adj[kv] = e.V, e.U
			if weighted {
				wts[ku], wts[kv] = e.W, e.W
			}
		}
	})
	// Sort each adjacency list and drop duplicates (parallel edges). When
	// weighted, duplicates are merged by keeping the maximum similarity.
	newLen := cur[:n] // the fill is done with row 0
	bud.ForBlock(n, func(lo, hi int) {
		var pairs []arc // one sort buffer per worker
		for v := lo; v < hi; v++ {
			a := adj[offsets[v]:offsets[v+1]]
			if !weighted {
				// A row of a sorted list without parallel edges needs no sort.
				if !strictlySorted(a) {
					slices.Sort(a)
					a = slices.Compact(a)
				}
				newLen[v] = int32(len(a))
				continue
			}
			w := wts[offsets[v]:offsets[v+1]]
			pairs = pairs[:0]
			for i, u := range a {
				pairs = append(pairs, arc{u, w[i]})
			}
			slices.SortFunc(pairs, func(x, y arc) int { return cmp.Compare(x.to, y.to) })
			out := 0
			for _, p := range pairs {
				if out > 0 && p.to == a[out-1] {
					if p.w > w[out-1] {
						w[out-1] = p.w
					}
					continue
				}
				a[out], w[out] = p.to, p.w
				out++
			}
			newLen[v] = int32(out)
		}
	})
	// When no parallel edge was merged, offsets already is the offsets
	// array and adj the packed adjacency.
	var kept int64
	for _, l := range newLen {
		kept += int64(l)
	}
	if kept == offsets[n] {
		return &CSR{NumV: n, Offsets: offsets, Adj: adj, Weights: wts}, nil
	}
	// Compact into final CSR arrays.
	packed := make([]int64, n+1)
	for v := 0; v < n; v++ {
		packed[v+1] = packed[v] + int64(newLen[v])
	}
	outAdj := make([]int32, packed[n])
	var outW []float64
	if weighted {
		outW = make([]float64, packed[n])
	}
	bud.For(n, func(v int) {
		lo := offsets[v]
		copy(outAdj[packed[v]:packed[v+1]], adj[lo:])
		if weighted {
			copy(outW[packed[v]:packed[v+1]], wts[lo:])
		}
	})
	return &CSR{NumV: n, Offsets: packed, Adj: outAdj, Weights: outW}, nil
}

// strictlySorted reports whether a is in strictly ascending order.
func strictlySorted(a []int32) bool {
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			return false
		}
	}
	return true
}

// Unweighted returns a view of g with weights stripped. The topology
// arrays are shared with g.
func (g *CSR) Unweighted() *CSR {
	return &CSR{NumV: g.NumV, Offsets: g.Offsets, Adj: g.Adj}
}

// WithUnitWeights returns a weighted copy of g where every edge has weight
// one — the configuration of the paper's "unit weights for road_usa" SSSP
// experiment. Topology arrays are shared with g.
func (g *CSR) WithUnitWeights() *CSR {
	w := make([]float64, len(g.Adj))
	for i := range w {
		w[i] = 1
	}
	return &CSR{NumV: g.NumV, Offsets: g.Offsets, Adj: g.Adj, Weights: w}
}
