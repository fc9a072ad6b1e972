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
}

// FromEdges builds a preprocessed CSR graph from an arbitrary edge list,
// applying the paper's §4.1 pipeline: ignore direction, drop self loops,
// merge parallel edges, and (unless disabled) extract the largest connected
// component with an order-preserving contiguous relabeling.
func FromEdges(n int, edges []Edge, opt BuildOptions) (*CSR, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", e.U, e.V, n)
		}
		if opt.Weighted && (math.IsNaN(e.W) || math.IsInf(e.W, 0)) {
			return nil, fmt.Errorf("graph: non-finite weight %g on edge {%d,%d}", e.W, e.U, e.V)
		}
		if opt.Weighted && e.W < 0 {
			return nil, fmt.Errorf("graph: negative weight %g on edge {%d,%d}", e.W, e.U, e.V)
		}
	}
	g := assemble(n, edges, opt.Weighted)
	if !opt.KeepAllComponents {
		g = LargestComponent(g)
	}
	return g, nil
}

// arc is one weighted adjacency entry while a row is sorted.
type arc struct {
	to int32
	w  float64
}

// assemble symmetrizes, deduplicates, and packs the edge list into CSR
// form. Counting and filling are parallelized over the arc array; the
// per-vertex sort/dedupe pass is parallelized over vertices.
func assemble(n int, edges []Edge, weighted bool) *CSR {
	// Count both directions of every non-loop edge.
	counts := make([]int64, n+1)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		counts[e.U+1]++
		counts[e.V+1]++
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	adj := make([]int32, counts[n])
	var wts []float64
	if weighted {
		wts = make([]float64, counts[n])
	}
	fill := make([]int64, n)
	copy(fill, counts[:n])
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		w := e.W
		if !weighted {
			w = 1
		}
		ku := fill[e.U]
		adj[ku] = e.V
		fill[e.U] = ku + 1
		kv := fill[e.V]
		adj[kv] = e.U
		fill[e.V] = kv + 1
		if weighted {
			wts[ku] = w
			wts[kv] = w
		}
	}
	// Sort each adjacency list and drop duplicates (parallel edges). When
	// weighted, duplicates are merged by keeping the maximum similarity.
	newLen := make([]int64, n)
	parallel.ForBlock(n, func(lo, hi int) {
		var pairs []arc // one sort buffer per worker
		for v := lo; v < hi; v++ {
			a := adj[counts[v]:counts[v+1]]
			if !weighted {
				slices.Sort(a)
				newLen[v] = int64(len(slices.Compact(a)))
				continue
			}
			w := wts[counts[v]:counts[v+1]]
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
			newLen[v] = int64(out)
		}
	})
	// Compact into final CSR arrays.
	offsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		offsets[v+1] = offsets[v] + newLen[v]
	}
	outAdj := make([]int32, offsets[n])
	var outW []float64
	if weighted {
		outW = make([]float64, offsets[n])
	}
	parallel.For(n, func(v int) {
		lo := counts[v]
		copy(outAdj[offsets[v]:offsets[v+1]], adj[lo:lo+newLen[v]])
		if weighted {
			copy(outW[offsets[v]:offsets[v+1]], wts[lo:lo+newLen[v]])
		}
	})
	return &CSR{NumV: n, Offsets: offsets, Adj: outAdj, Weights: outW}
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
