package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/parallel"
)

func TestComponentsTwoIslands(t *testing.T) {
	// {0,1,2} triangle and {3,4} edge.
	edges := []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 3, V: 4}}
	g := mustFromEdges(t, 5, edges, BuildOptions{KeepAllComponents: true})
	label, count := Components(g)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if label[0] != label[1] || label[1] != label[2] {
		t.Fatal("triangle not one component")
	}
	if label[3] != label[4] || label[3] == label[0] {
		t.Fatal("edge component mislabeled")
	}
}

func TestLargestComponentExtraction(t *testing.T) {
	// Big component on {1,3,5,7}, small on {0,2}.
	edges := []Edge{
		{U: 1, V: 3}, {U: 3, V: 5}, {U: 5, V: 7}, {U: 7, V: 1},
		{U: 0, V: 2},
	}
	g := mustFromEdges(t, 8, edges, BuildOptions{})
	if g.NumV != 4 {
		t.Fatalf("LCC size = %d, want 4", g.NumV)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("LCC edges = %d, want 4", g.NumEdges())
	}
	if err := g.Validate(parallel.Live()); err != nil {
		t.Fatal(err)
	}
	// Order preservation: old 1<3<5<7 must map to new 0<1<2<3 — the cycle
	// structure must connect new 0-1, 1-2, 2-3, 3-0.
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("expected edge {%d,%d} after order-preserving relabel", e[0], e[1])
		}
	}
}

func TestLargestComponentIsNoopWhenConnected(t *testing.T) {
	edges := []Edge{{U: 0, V: 1}, {U: 1, V: 2}}
	g := mustFromEdges(t, 3, edges, BuildOptions{KeepAllComponents: true})
	if got := LargestComponent(g); got != g {
		t.Fatal("connected graph should be returned unchanged")
	}
}

func TestLargestComponentProperty(t *testing.T) {
	// After extraction the graph is connected, valid, and at least as large
	// as any other component.
	cfg := &quick.Config{MaxCount: 40}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(120)
		m := r.Intn(2 * n)
		g, err := FromEdges(n, randomEdges(n, m, seed), BuildOptions{})
		if err != nil {
			return false
		}
		if g.Validate(parallel.Live()) != nil {
			return false
		}
		_, count := Components(g)
		return count == 1
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLargestComponentPreservesWeights(t *testing.T) {
	edges := []Edge{
		{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 7},
		{U: 3, V: 4, W: 9}, // smaller component, dropped
	}
	g := mustFromEdges(t, 5, edges, BuildOptions{Weighted: true})
	if g.NumV != 3 || !g.Weighted() {
		t.Fatalf("LCC n=%d weighted=%v", g.NumV, g.Weighted())
	}
	if err := g.Validate(parallel.Live()); err != nil {
		t.Fatal(err)
	}
	// Weight of edge {0,1} must survive as 5.
	found := false
	for k, u := range g.Neighbors(0) {
		if u == 1 && g.NeighborWeights(0)[k] == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("edge weight lost in component extraction")
	}
}
