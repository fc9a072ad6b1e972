package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/ortho"
	"repro/internal/parallel"
)

// pivotLayout is ParHDE's cold pipeline on one worker from the given pivot
// sequence instead of a k-centers draw: one BFS per pivot into DOrtho,
// TripleProd, the projected eigensolve and the projection.
func pivotLayout(t *testing.T, g *graph.CSR, sources []int32) *Layout {
	t.Helper()
	bud := parallel.FixedBudget(1)
	n := g.NumV
	deg := g.WeightedDegreesIntoBudget(bud, nil)
	inc := ortho.NewIncremental(bud, n, len(sources), deg, ortho.MGS, nil)
	runner := bfs.NewRunner(g, bfs.Options{}, &bfs.Scratch{}, bud)
	dist, col := make([]int32, n), make([]float64, n)
	for _, src := range sources {
		runner.Distances(src, dist)
		linalg.Int32ToFloat64Budget(bud, col, dist)
		inc.Add(col)
	}
	res := inc.Packed()
	z, srm, _ := linalg.TripleProdBudget(bud, g, deg, res.Packed, 1, nil, nil, nil)
	axes, _, err := projectedAxes(z, res.DNorms, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Layout{Coords: linalg.MulSmallRowMajorBudget(bud, srm, axes, nil)}
}

func sameLayout(a, b *Layout) bool {
	if a.Coords.Rows != b.Coords.Rows || a.Coords.Cols != b.Coords.Cols {
		return false
	}
	for i, v := range a.Coords.Data {
		if math.Float64bits(v) != math.Float64bits(b.Coords.Data[i]) {
			return false
		}
	}
	return true
}

// TestLayoutRelabelEquivariant is the metamorphic test of §4.4's claim
// that a vertex order changes the time and not the drawing: with the
// pivot sequence mapped through a permutation π, the layout of
// graph.Permute(g, π) is π of g's layout to 1e-10 of each axis's extent
// (only summation orders change), the solver's sign rule fixing the sign.
func TestLayoutRelabelEquivariant(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.CSR
	}{
		{"grid", gen.Grid2D(30, 30)},
		{"road", gen.Road(40, 40, 1)},
		{"kron", graph.LargestComponent(gen.Kron(12, 16, 1))},
	} {
		lay, rep, err := ParHDE(c.g, Options{Subspace: 10, Seed: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		// The helper is the pipeline: from ParHDE's own pivots it draws
		// ParHDE's layout, bit for bit.
		if !sameLayout(pivotLayout(t, c.g, rep.Sources), lay) {
			t.Fatalf("%s: the pivot pipeline does not reproduce ParHDE's layout", c.name)
		}
		perm := graph.RandomPermutation(c.g.NumV, 5)
		pg, err := graph.Permute(c.g, perm, parallel.FixedBudget(2))
		if err != nil {
			t.Fatal(err)
		}
		sources := make([]int32, len(rep.Sources))
		for i, s := range rep.Sources {
			sources[i] = perm[s]
		}
		play := pivotLayout(t, pg, sources)
		for k := 0; k < lay.Dims(); k++ {
			x, px := lay.Coords.Col(k), play.Coords.Col(k)
			mn, mx := FiniteBounds(x)
			tol := 1e-10 * (mx - mn)
			var worst float64
			for v, xv := range x {
				worst = math.Max(worst, math.Abs(px[perm[v]]-xv))
			}
			t.Logf("%s (n=%d) axis %d: largest difference %.3g, bound %.3g", c.name, c.g.NumV, k, worst, tol)
			if !(worst <= tol) {
				t.Errorf("%s axis %d: relabelled layout is %.3g from π of the layout, want ≤ %.3g", c.name, k, worst, tol)
			}
		}
	}
}

// TestLayoutIgnoresPreprocessedNoise: duplicate edges (both directions,
// other weights), self loops and an extra isolated vertex ahead of the
// others leave the preprocessed graph, and so its layout, bit for bit
// unchanged.
func TestLayoutIgnoresPreprocessedNoise(t *testing.T) {
	for _, c := range []struct {
		name string
		g    *graph.CSR
	}{
		{"grid", gen.Grid2D(30, 30)},
		{"road", gen.Road(40, 40, 1)},
		{"kron", graph.LargestComponent(gen.Kron(12, 16, 1))},
	} {
		var clean, noisy []graph.Edge
		for v := int32(0); int(v) < c.g.NumV; v++ {
			for _, u := range c.g.Neighbors(v) {
				if v >= u {
					continue
				}
				clean = append(clean, graph.Edge{U: v, V: u, W: 1})
				// Vertex 0 of the noisy list is isolated: every id moves up one.
				noisy = append(noisy, graph.Edge{U: v + 1, V: u + 1, W: 1})
				if (v+u)%3 == 0 {
					noisy = append(noisy, graph.Edge{U: u + 1, V: v + 1, W: 2})
				}
				if u%5 == 0 {
					noisy = append(noisy, graph.Edge{U: u + 1, V: u + 1, W: 1})
				}
			}
		}
		want, err := graph.FromEdges(c.g.NumV, clean, graph.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := graph.FromEdges(c.g.NumV+1, noisy, graph.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.NumV != want.NumV || !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Adj, want.Adj) {
			t.Fatalf("%s: the noisy list preprocessed into another graph", c.name)
		}
		opt := Options{Subspace: 10, Seed: 1}
		a, _, err := ParHDE(want, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := ParHDE(got, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !sameLayout(a, b) {
			t.Fatalf("%s: the noisy list's layout differs", c.name)
		}
	}
}
