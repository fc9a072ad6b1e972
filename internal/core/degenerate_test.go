package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ortho"
	"repro/internal/pivot"
)

// TestParHDEDegenerateInputs runs every degenerate shape through the core
// entry point under every pivot strategy (and the weighted Δ-stepping
// stream), both orthogonalization methods and both inner products. Each
// row pins an error or a finite layout whose kept and dropped columns
// account for every one of the s streamed columns. No row may panic: the
// stream hands the orthogonalizer exactly s columns, the capacity it was
// started with, so its over-capacity panic cannot be reached from here.
func TestParHDEDegenerateInputs(t *testing.T) {
	split, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}, graph.BuildOptions{KeepAllComponents: true})
	if err != nil {
		t.Fatal(err)
	}
	const notConnected = "graph is not connected"
	const tooFew = "independent distance vectors (need 2)"
	cases := []struct {
		name string
		g    *graph.CSR
		opt  Options
		err  string // "" pins a finite layout
		// drops pins that some hop column is dependent: a grid's hop
		// columns span only the constant and the two coordinates, so s
		// exceeds the independent columns there are.
		drops bool
	}{
		{"two-vertices", gen.Path(2), Options{}, tooFew, false}, // s clamps to 1
		{"path50", gen.Path(50), Options{}, "", false},
		{"star50", gen.Star(50), Options{}, "", false},
		{"clique12", gen.Complete(12), Options{}, "", false},
		{"n-le-s", gen.Complete(6), Options{Subspace: 50}, "", false}, // s clamps to 5
		{"grid-corners", gen.Grid2D(3, 3), Options{Subspace: 8}, "", true},
		{"grid-2x2", gen.Grid2D(2, 2), Options{}, "", true}, // s clamps to 3
		{"s1-dims2", gen.Grid2D(10, 10), Options{Subspace: 1}, tooFew, false},
		{"disconnected", split, Options{}, notConnected, false},
	}
	strategies := []struct {
		name     string
		pivots   pivot.Strategy
		weighted bool
	}{
		{"kcenters", pivot.KCenters, false},
		{"random", pivot.Random, false},
		{"random-ms", pivot.RandomMS, false},
		{"delta-stepping", pivot.KCenters, true},
	}
	for _, c := range cases {
		for _, st := range strategies {
			for _, method := range []ortho.Method{ortho.MGS, ortho.CGS} {
				for _, plain := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/%v/plain=%v", c.name, st.name, method, plain)
					t.Run(name, func(t *testing.T) {
						g := c.g
						if st.weighted {
							g = gen.WithRandomWeights(g, 5, 3)
						}
						opt := c.opt
						opt.Seed, opt.Pivots, opt.Ortho, opt.PlainOrtho = 7, st.pivots, method, plain
						s := opt.withDefaults().Subspace
						if s >= g.NumV {
							s = g.NumV - 1
						}
						lay, rep, err := ParHDE(g, opt)
						if c.err != "" {
							if err == nil || !strings.Contains(err.Error(), c.err) {
								t.Fatalf("error %v, want one containing %q", err, c.err)
							}
							if lay != nil || rep != nil {
								t.Fatal("a failed run returned a layout or report")
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						if rep.KeptColumns+rep.DroppedColumns != s {
							t.Fatalf("kept %d + dropped %d columns, want s = %d", rep.KeptColumns, rep.DroppedColumns, s)
						}
						if c.drops && !st.weighted && rep.DroppedColumns == 0 {
							t.Fatalf("all %d hop columns kept", s)
						}
						if lay.NumVertices() != g.NumV || lay.Dims() != 2 {
							t.Fatalf("layout %dx%d", lay.NumVertices(), lay.Dims())
						}
						for i, v := range lay.Coords.Data {
							if math.IsNaN(v) || math.IsInf(v, 0) {
								t.Fatalf("coordinate %d = %v", i, v)
							}
						}
					})
				}
			}
		}
	}
}
