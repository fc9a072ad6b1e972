package graph_test

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// insertionSortRow sorts adj[lo:hi] ascending, permuting wts in lockstep
// when present: Permute's row sort before it became one real sort per
// row. It is quadratic in the row's length, which cost 31.8 s on the hub
// rows of a 2^20-vertex Kronecker graph, and stays here as the reference.
func insertionSortRow(adj []int32, wts []float64, lo, hi int64) {
	for i := lo + 1; i < hi; i++ {
		a := adj[i]
		var w float64
		if wts != nil {
			w = wts[i]
		}
		j := i - 1
		for j >= lo && adj[j] > a {
			adj[j+1] = adj[j]
			if wts != nil {
				wts[j+1] = wts[j]
			}
			j--
		}
		adj[j+1] = a
		if wts != nil {
			wts[j+1] = w
		}
	}
}

// permuteRef relabels g by perm (perm[old] = new) serially, each row
// sorted by insertionSortRow.
func permuteRef(g *graph.CSR, perm []int32) *graph.CSR {
	n := g.NumV
	inv := make([]int32, n)
	for old, nw := range perm {
		inv[nw] = int32(old)
	}
	out := &graph.CSR{NumV: n, Offsets: make([]int64, n+1), Adj: make([]int32, 0, len(g.Adj))}
	if g.Weights != nil {
		out.Weights = make([]float64, 0, len(g.Weights))
	}
	for nw, old := range inv {
		lo := int64(len(out.Adj))
		for k := g.Offsets[old]; k < g.Offsets[old+1]; k++ {
			out.Adj = append(out.Adj, perm[g.Adj[k]])
			if g.Weights != nil {
				out.Weights = append(out.Weights, g.Weights[k])
			}
		}
		insertionSortRow(out.Adj, out.Weights, lo, int64(len(out.Adj)))
		out.Offsets[nw+1] = int64(len(out.Adj))
	}
	return out
}

// TestPermuteMatchesInsertionSort holds Permute's one sort per row bitwise
// to the insertion sort it replaced, weights in lockstep, on a star whose
// hub row has 2^15 entries and on a Kronecker graph. Validate forbids a
// repeated neighbour, so every correct sort agrees.
func TestPermuteMatchesInsertionSort(t *testing.T) {
	for name, g := range map[string]*graph.CSR{
		"star":  gen.Star(1<<15 + 1),
		"kron":  gen.Kron(10, 8, 3),
		"wstar": gen.WithRandomWeights(gen.Star(1<<15+1), 1000, 5),
		"wkron": gen.WithRandomWeights(gen.Kron(10, 8, 3), 1000, 5),
	} {
		perm := graph.RandomPermutation(g.NumV, 11)
		got, err := graph.Permute(g, perm, parallel.Live())
		if err != nil {
			t.Fatal(err)
		}
		want := permuteRef(g, perm)
		if err := got.Validate(parallel.Live()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		same := len(got.Adj) == len(want.Adj) && len(got.Weights) == len(want.Weights)
		for i := 0; same && i <= g.NumV; i++ {
			same = got.Offsets[i] == want.Offsets[i]
		}
		for i := 0; same && i < len(want.Adj); i++ {
			same = got.Adj[i] == want.Adj[i]
		}
		for i := 0; same && i < len(want.Weights); i++ {
			same = math.Float64bits(got.Weights[i]) == math.Float64bits(want.Weights[i])
		}
		if !same {
			t.Errorf("%s: Permute differs from the insertion-sort reference", name)
		}
		if (g.Weights != nil) != (got.Weights != nil) {
			t.Errorf("%s: weighted %v in, %v out", name, g.Weights != nil, got.Weights != nil)
		}
	}
}
