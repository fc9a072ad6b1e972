package order

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

func TestRCMIsPermutationAndReducesBandwidth(t *testing.T) {
	// Start from a deliberately scrambled grid.
	g := gen.Grid2D(30, 30)
	scramble := graph.RandomPermutation(g.NumV, 9)
	bad, err := graph.Permute(g, scramble, parallel.Live())
	if err != nil {
		t.Fatal(err)
	}
	perm := RCM(bad)
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || int(p) >= len(perm) || seen[p] {
			t.Fatal("RCM output is not a permutation")
		}
		seen[p] = true
	}
	fixed, err := graph.Permute(bad, perm, parallel.Live())
	if err != nil {
		t.Fatal(err)
	}
	bwBad, bwFixed := Bandwidth(bad), Bandwidth(fixed)
	if bwFixed >= bwBad/4 {
		t.Fatalf("RCM bandwidth %d not well below scrambled %d", bwFixed, bwBad)
	}
	// Mean gap must also recover substantially.
	gapBad := graph.GapSummary(bad).Mean
	gapFixed := graph.GapSummary(fixed).Mean
	if gapFixed >= gapBad/4 {
		t.Fatalf("RCM mean gap %.0f not well below scrambled %.0f", gapFixed, gapBad)
	}
}

func TestRCMHandlesDisconnected(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 3, V: 4}}
	g, err := graph.FromEdges(5, edges, graph.BuildOptions{KeepAllComponents: true})
	if err != nil {
		t.Fatal(err)
	}
	perm := RCM(g)
	seen := make([]bool, 5)
	for _, p := range perm {
		if seen[p] {
			t.Fatal("duplicate id")
		}
		seen[p] = true
	}
}

func TestHilbertFromLayoutRecoversLocality(t *testing.T) {
	// Scramble a grid, lay it out with ParHDE, reorder along the Hilbert
	// curve of the drawing: the mean adjacency gap must drop dramatically.
	g := gen.Grid2D(40, 40)
	scramble := graph.RandomPermutation(g.NumV, 4)
	bad, err := graph.Permute(g, scramble, parallel.Live())
	if err != nil {
		t.Fatal(err)
	}
	lay, _, err := core.ParHDE(bad, core.Options{Subspace: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	perm, err := HilbertFromLayout(lay, 10)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := graph.Permute(bad, perm, parallel.Live())
	if err != nil {
		t.Fatal(err)
	}
	gapBad := graph.GapSummary(bad).Mean
	gapFixed := graph.GapSummary(fixed).Mean
	if gapFixed >= gapBad/5 {
		t.Fatalf("Hilbert-from-layout mean gap %.0f not well below scrambled %.0f", gapFixed, gapBad)
	}
}

func TestHilbertErrorsAndClamps(t *testing.T) {
	one := core.RandomLayout(10, 1, 1)
	if _, err := HilbertFromLayout(one, 10); err == nil {
		t.Fatal("1-D layout accepted")
	}
	l := core.RandomLayout(100, 2, 2)
	for _, order := range []int{0, 20} { // clamped, not rejected
		perm, err := HilbertFromLayout(l, order)
		if err != nil || len(perm) != 100 {
			t.Fatalf("order %d: %v", order, err)
		}
	}
}

func TestHilbertCurveAdjacency(t *testing.T) {
	// Consecutive curve positions are adjacent cells: d(x,y) values over a
	// small grid must form a bijection with unit-step continuity.
	order := 3
	side := int32(1) << uint(order)
	pos := make(map[uint64][2]int32, side*side)
	for x := int32(0); x < side; x++ {
		for y := int32(0); y < side; y++ {
			d := hilbertD(order, x, y)
			if _, dup := pos[d]; dup {
				t.Fatalf("duplicate curve distance %d", d)
			}
			pos[d] = [2]int32{x, y}
		}
	}
	for d := uint64(0); d+1 < uint64(side*side); d++ {
		a, b := pos[d], pos[d+1]
		manhattan := abs32(a[0]-b[0]) + abs32(a[1]-b[1])
		if manhattan != 1 {
			t.Fatalf("curve jump between %d and %d: %v -> %v", d, d+1, a, b)
		}
	}
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

func TestBandwidthPath(t *testing.T) {
	g := gen.Path(100)
	if bw := Bandwidth(g); bw != 1 {
		t.Fatalf("path bandwidth %d", bw)
	}
}

// BenchmarkRCM orders a 2^16-vertex Kronecker (R-MAT) graph: the skewed
// degree distribution exercises the degree-sorted expansion on hub
// vertices, where the old per-component map and per-vertex neighbor copy
// dominated. Compare allocs/op against the epoch-slice rewrite.
func BenchmarkRCM(b *testing.B) {
	g := gen.Kron(16, 8, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RCM(g)
	}
}

// TestHilbertFromLayoutNonFiniteCoordinate: a +Inf or NaN coordinate
// leaves every other vertex's order as the finite layout without that
// vertex gives it, and puts its own vertex last.
func TestHilbertFromLayoutNonFiniteCoordinate(t *testing.T) {
	l := core.RandomLayout(50, 2, 3)
	rest := core.RandomLayout(49, 2, 3)
	for v := 0; v < 49; v++ { // l less vertex 7
		u := v
		if v >= 7 {
			u++
		}
		rest.Coords.Set(v, 0, l.Coords.At(u, 0))
		rest.Coords.Set(v, 1, l.Coords.At(u, 1))
	}
	want, err := HilbertFromLayout(rest, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.Inf(1), math.NaN()} {
		l.Coords.Set(7, 0, bad)
		perm, err := HilbertFromLayout(l, 10)
		if err != nil {
			t.Fatal(err)
		}
		if perm[7] != 49 {
			t.Fatalf("x = %g: vertex 7 placed at %d, want last", bad, perm[7])
		}
		for v := 0; v < 49; v++ {
			u := v
			if v >= 7 {
				u++
			}
			if perm[u] != want[v] {
				t.Fatalf("x = %g: vertex %d placed at %d, want %d", bad, u, perm[u], want[v])
			}
		}
	}
}
