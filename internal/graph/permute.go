package graph

import (
	"fmt"

	"repro/internal/parallel"
)

// Permute relabels the vertices of g by the permutation perm, where
// perm[old] = new. It is the operation behind the paper's §4.4 ordering
// study: randomly permuting a locality-ordered graph (sk-2005) destroys
// adjacency-gap locality and slows the LS SpMM by ~6.8×.
func Permute(g *CSR, perm []int32) (*CSR, error) {
	n := g.NumV
	if len(perm) != n {
		return nil, fmt.Errorf("graph: permutation length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			return nil, fmt.Errorf("graph: invalid permutation")
		}
		seen[p] = true
	}
	inv := make([]int32, n) // inv[new] = old
	for old, nw := range perm {
		inv[nw] = int32(old)
	}
	offsets := make([]int64, n+1)
	for nw := 0; nw < n; nw++ {
		old := inv[nw]
		offsets[nw+1] = offsets[nw] + (g.Offsets[old+1] - g.Offsets[old])
	}
	adj := make([]int32, len(g.Adj))
	var wts []float64
	if g.Weights != nil {
		wts = make([]float64, len(g.Weights))
	}
	parallel.Live().For(n, func(nw int) {
		old := inv[nw]
		pos := offsets[nw]
		for k := g.Offsets[old]; k < g.Offsets[old+1]; k++ {
			adj[pos] = perm[g.Adj[k]]
			if wts != nil {
				wts[pos] = g.Weights[k]
			}
			pos++
		}
		// Re-sort the relabeled adjacency (insertion sort is fine for
		// typical degrees; fall back to a simple quicksort via sortInt32).
		sortAdjRange(adj, wts, offsets[nw], pos)
	})
	return &CSR{NumV: n, Offsets: offsets, Adj: adj, Weights: wts}, nil
}

// sortAdjRange sorts adj[lo:hi] ascending, permuting wts in lockstep when
// present.
func sortAdjRange(adj []int32, wts []float64, lo, hi int64) {
	// Insertion sort: adjacency lists are short relative to n and this
	// runs once per vertex during preprocessing.
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

// RandomPermutation returns a uniformly random permutation of [0, n) using
// the given seed (Fisher–Yates over a splitmix64 stream, matching the
// generator package's RNG so experiments are reproducible end to end).
func RandomPermutation(n int, seed uint64) []int32 {
	return RandomPermutationInto(make([]int32, n), seed)
}

// RandomPermutationInto is RandomPermutation writing into the caller's
// slice (its length fixes n), so pooled workspaces can draw pivots
// without allocating.
func RandomPermutationInto(perm []int32, seed uint64) []int32 {
	n := len(perm)
	for i := range perm {
		perm[i] = int32(i)
	}
	s := seed
	nextU64 := func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(nextU64() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}
