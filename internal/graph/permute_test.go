package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
)

func TestPermuteIdentity(t *testing.T) {
	g := mustFromEdges(t, 4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, BuildOptions{})
	perm := []int32{0, 1, 2, 3}
	p, err := Permute(g, perm, parallel.Live())
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); int(v) < g.NumV; v++ {
		a, b := g.Neighbors(v), p.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("degree changed at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("identity permutation changed adjacency at %d", v)
			}
		}
	}
}

func TestPermuteRejectsInvalid(t *testing.T) {
	g := mustFromEdges(t, 3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}}, BuildOptions{})
	for _, perm := range [][]int32{
		{0, 1},          // short
		{0, 1, 1},       // duplicate
		{0, 1, 5},       // out of range
		{0, -1, 2},      // negative
		{0, 1, 2, 3, 4}, // long
	} {
		if _, err := Permute(g, perm, parallel.Live()); err == nil {
			t.Fatalf("permutation %v accepted", perm)
		}
	}
}

func TestPermutePreservesStructure(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	err := quick.Check(func(seed int64, weighted bool) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(80)
		g, err := FromEdges(n, randomEdges(n, 3*n, seed), BuildOptions{Weighted: weighted, KeepAllComponents: true})
		if err != nil {
			return false
		}
		perm := RandomPermutation(g.NumV, uint64(seed))
		p, err := Permute(g, perm, parallel.Live())
		if err != nil || p.Validate(parallel.Live()) != nil {
			return false
		}
		if p.NumEdges() != g.NumEdges() {
			return false
		}
		// Every original edge must exist relabeled, with its weight.
		for v := int32(0); int(v) < g.NumV; v++ {
			for k, u := range g.Neighbors(v) {
				if !p.HasEdge(perm[v], perm[u]) {
					return false
				}
				if weighted {
					pv := perm[v]
					for j, pu := range p.Neighbors(pv) {
						if pu == perm[u] && p.NeighborWeights(pv)[j] != g.NeighborWeights(v)[k] {
							return false
						}
					}
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPermuteRoundTrip(t *testing.T) {
	g := mustFromEdges(t, 30, randomEdges(30, 60, 7), BuildOptions{KeepAllComponents: true})
	perm := RandomPermutation(g.NumV, 42)
	inv := make([]int32, len(perm))
	for old, nw := range perm {
		inv[nw] = int32(old)
	}
	p, err := Permute(g, perm, parallel.Live())
	if err != nil {
		t.Fatal(err)
	}
	back, err := Permute(p, inv, parallel.Live())
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); int(v) < g.NumV; v++ {
		a, b := g.Neighbors(v), back.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("round trip degree mismatch at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round trip adjacency mismatch at %d", v)
			}
		}
	}
}

func TestRandomPermutationIsPermutation(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		perm := RandomPermutation(257, seed)
		seen := make([]bool, 257)
		for _, p := range perm {
			if p < 0 || int(p) >= 257 || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRandomPermutationDeterministic(t *testing.T) {
	a := RandomPermutation(100, 5)
	b := RandomPermutation(100, 5)
	c := RandomPermutation(100, 6)
	same := true
	diff := false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed produced different permutations")
	}
	if !diff {
		t.Fatal("different seeds produced identical permutations")
	}
}
