package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/workspace"
)

// mutateEdges returns a copy of g with delta edges flipped (present edges
// removed, absent ones added), deterministically.
func mutateEdges(t *testing.T, g *graph.CSR, delta int, seed uint64) *graph.CSR {
	t.Helper()
	edges := edgeSet(g)
	h := seed
	n := int32(g.NumV)
	for changed := 0; changed < delta; {
		h = splitmix(h)
		u := int32(h % uint64(n))
		h = splitmix(h)
		v := int32(h % uint64(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		k := [2]int32{u, v}
		if edges[k] {
			// Keep deletions rare so connectivity survives.
			if h&7 != 0 {
				continue
			}
			delete(edges, k)
		} else {
			edges[k] = true
		}
		changed++
	}
	return fromEdgeSet(t, g.NumV, edges)
}

// edgeSet returns g's edges {u, v}, u < v.
func edgeSet(g *graph.CSR) map[[2]int32]bool {
	edges := make(map[[2]int32]bool)
	for v := int32(0); int(v) < g.NumV; v++ {
		for _, u := range g.Neighbors(v) {
			if u > v {
				edges[[2]int32{v, u}] = true
			}
		}
	}
	return edges
}

func fromEdgeSet(t *testing.T, n int, edges map[[2]int32]bool) *graph.CSR {
	t.Helper()
	list := make([]graph.Edge, 0, len(edges))
	for k := range edges {
		list = append(list, graph.Edge{U: k[0], V: k[1]})
	}
	out, err := graph.FromEdges(n, list, graph.BuildOptions{KeepAllComponents: true})
	if err != nil {
		t.Fatalf("fromEdgeSet: %v", err)
	}
	return out
}

// withEdges returns a copy of g with the add edges inserted and the del
// edges removed.
func withEdges(t *testing.T, g *graph.CSR, add, del [][2]int32) *graph.CSR {
	t.Helper()
	edges := edgeSet(g)
	for _, e := range add {
		edges[[2]int32{min(e[0], e[1]), max(e[0], e[1])}] = true
	}
	for _, e := range del {
		delete(edges, [2]int32{min(e[0], e[1]), max(e[0], e[1])})
	}
	return fromEdgeSet(t, g.NumV, edges)
}

// builtBasis returns the basis of g's cold layout under opt, built by a
// warm run on g itself.
func builtBasis(t *testing.T, g *graph.CSR, opt Options) *Basis {
	t.Helper()
	opt.Basis = NewBasis(g, opt)
	if _, rep, err := ParHDE(g, opt); err != nil || !rep.Warm {
		t.Fatalf("building the basis: warm=%v err=%v", rep != nil && rep.Warm, err)
	}
	return opt.Basis
}

func TestWarmStartRunsAndRefines(t *testing.T) {
	g := gen.Grid2D(30, 30)
	prior, rep0, err := ParHDE(g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep0.Warm {
		t.Fatal("cold run reported Warm")
	}
	g2 := mutateEdges(t, g, 8, 99)
	want, _ := diffEdges(g, g2, g2.NumV)
	lay, rep, err := ParHDE(g2, Options{Seed: 3, Basis: NewBasis(g, Options{Seed: 3})})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Warm || rep.DeltaEdges != len(want) || len(want) == 0 {
		t.Fatalf("warm=%v delta=%d, want warm with %d delta edges", rep.Warm, rep.DeltaEdges, len(want))
	}
	if rep.Breakdown.WarmRefine <= 0 || rep.Breakdown.Total <= 0 {
		t.Fatalf("warm breakdown not recorded: %+v", rep.Breakdown)
	}
	if lay.NumVertices() != g2.NumV || lay.Dims() != 2 {
		t.Fatalf("warm layout shape %dx%d", lay.NumVertices(), lay.Dims())
	}
	for j := 0; j < lay.Dims(); j++ {
		for _, v := range lay.Coords.Col(j) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("warm layout has non-finite coordinates")
			}
		}
	}
	// The update must actually move the prior (the graph changed) but
	// stay anchored to it: correlate axis 0 before/after.
	moved := false
	for i, v := range lay.X() {
		if v != prior.X()[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("warm update did not move any coordinate")
	}
	if c := axisCorr(prior.X(), lay.X()); math.Abs(c) < 0.9 {
		t.Fatalf("warm layout decorrelated from prior: |r| = %.3f", math.Abs(c))
	}
}

func axisCorr(a, b []float64) float64 {
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(len(a))
	mb /= float64(len(b))
	var num, da, db float64
	for i := range a {
		x, y := a[i]-ma, b[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}

func TestWarmStartFallsBackCold(t *testing.T) {
	g := gen.Grid2D(20, 20)
	basis := NewBasis(g, Options{Seed: 1})
	cases := []struct {
		name string
		g    *graph.CSR
		opt  Options
	}{
		{"nil prior", g, Options{Seed: 1}},
		{"delta too large", mutateEdges(t, g, 40, 5), Options{Seed: 1, Basis: basis}},
		{"dims mismatch", g, Options{Seed: 1, Basis: basis, Dims: 3, Subspace: 8}},
		{"weighted graph", g.WithUnitWeights(), Options{Seed: 1, Basis: basis}},
		{"prior larger than graph", gen.Grid2D(10, 10), Options{Seed: 1, Basis: basis}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, rep, err := ParHDE(tc.g, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Warm || rep.DeltaEdges != 0 {
				t.Fatal("ineligible basis took the warm path")
			}
		})
	}
}

// TestWarmFallbackReportsColdRun: a run whose basis turns out stale (past
// the bound) or unusable (M′ not positive definite) reports only the cold
// run it fell back to — no warm_refine time and the cold traversals once.
func TestWarmFallbackReportsColdRun(t *testing.T) {
	g := gen.Grid2D(20, 20)
	opt := Options{Seed: 1}
	built := builtBasis(t, g, opt)
	notPD := &Basis{g: g, opt: built.opt, srm: built.srm, z: built.z, m: built.m.Clone(), gamma: built.gamma}
	linalg.Scale(-1, notPD.m.Data)
	cases := []struct {
		name  string
		g     *graph.CSR
		basis *Basis
	}{
		{"past the bound", mutateEdges(t, g, 40, 5), NewBasis(g, opt)},
		{"M not positive definite", mutateEdges(t, g, 3, 5), notPD},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, cold, err := ParHDE(tc.g, opt)
			if err != nil {
				t.Fatal(err)
			}
			withBasis := opt
			withBasis.Basis = tc.basis
			_, rep, err := ParHDE(tc.g, withBasis)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Warm || rep.Breakdown.WarmRefine != 0 || rep.DeltaEdges != 0 {
				t.Fatalf("fallback reports warm=%v warm_refine=%v delta=%d", rep.Warm, rep.Breakdown.WarmRefine, rep.DeltaEdges)
			}
			if len(rep.BFSStats) != len(cold.BFSStats) || rep.BFSTotals() != cold.BFSTotals() {
				t.Fatalf("fallback reports %d traversals (%+v), the cold run %d (%+v)",
					len(rep.BFSStats), rep.BFSTotals(), len(cold.BFSStats), cold.BFSTotals())
			}
		})
	}
}

// TestStaleBasisServesDisconnectedGraph: past the bound a connected graph
// relays out cold, but a disconnected one, which the cold path refuses,
// still runs warm over every differing edge.
func TestStaleBasisServesDisconnectedGraph(t *testing.T) {
	g := gen.Grid2D(20, 20) // 400 vertices, 760 edges
	edges := edgeSet(mutateEdges(t, g, 30, 5))
	edges[[2]int32{0, 400}] = true
	grown := fromEdgeSet(t, 420, edges) // 401…419 isolated
	want, _ := diffEdges(g, grown, grown.NumV)
	opt := Options{Seed: 1}
	if _, _, err := ParHDE(grown, opt); err == nil {
		t.Fatal("cold layout of a disconnected graph succeeded")
	}
	opt.Basis = NewBasis(g, opt)
	lay, rep, err := ParHDE(grown, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Warm || rep.DeltaEdges != len(want) {
		t.Fatalf("warm=%v over %d edges, want warm over %d", rep.Warm, rep.DeltaEdges, len(want))
	}
	if len(want) <= int(DefaultMaxPriorDelta*float64(grown.NumEdges())) {
		t.Fatalf("%d differing edges are inside the bound", len(want))
	}
	if lay.NumVertices() != grown.NumV {
		t.Fatalf("layout has %d vertices, want %d", lay.NumVertices(), grown.NumV)
	}
}

func TestWarmStartPlacesNewVertices(t *testing.T) {
	g := gen.Grid2D(20, 20) // 400 vertices
	// Grow the graph by two vertices: 400 hangs off 0, 401 hangs off 400
	// only (so its only neighbor is itself new).
	edges := edgeSet(g)
	edges[[2]int32{0, 400}], edges[[2]int32{400, 401}] = true, true
	g2 := fromEdgeSet(t, 402, edges)
	lay, rep, err := ParHDE(g2, Options{Seed: 5, Basis: NewBasis(g, Options{Seed: 5})})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Warm || rep.DeltaEdges != 2 {
		t.Fatalf("growing delta within bound: warm=%v delta=%d, want warm with 2", rep.Warm, rep.DeltaEdges)
	}
	if lay.NumVertices() != 402 {
		t.Fatalf("layout has %d vertices, want 402", lay.NumVertices())
	}
	// The new leaf should land near its anchor, not at the far edge of
	// the drawing: distance(400, 0) well under the drawing span.
	dx, dy := lay.X()[400]-lay.X()[0], lay.Y()[400]-lay.Y()[0]
	mn, mx := lay.Bounds()
	span := math.Max(mx[0]-mn[0], mx[1]-mn[1])
	if d := math.Hypot(dx, dy); d > span/4 {
		t.Fatalf("new vertex placed %.3g from anchor (span %.3g)", d, span)
	}
}

func TestWarmStartDeterministicAcrossBudgetsAndWorkspace(t *testing.T) {
	g := gen.Kron(10, 8, 7)
	g2 := mutateEdges(t, g, 6, 11)
	base := Options{Seed: 7, Basis: builtBasis(t, g, Options{Seed: 7})}

	var ref *Layout
	for _, workers := range []int{1, 2, 4, 0} {
		opt := base
		opt.Workers = workers
		lay, rep, err := ParHDE(g2, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Warm {
			t.Fatal("expected warm path")
		}
		if ref == nil {
			ref = lay.Clone()
			continue
		}
		for j := 0; j < ref.Dims(); j++ {
			a, b := ref.Coords.Col(j), lay.Coords.Col(j)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workers=%d: coordinate (%d,%d) differs: %g vs %g", workers, i, j, a[i], b[i])
				}
			}
		}
	}

	// A workspace-backed run is bit-identical too, twice in a row (reuse).
	ws := workspace.New()
	for run := 0; run < 2; run++ {
		opt := base
		opt.Workspace = ws
		lay, rep, err := ParHDE(g2, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Warm {
			t.Fatal("expected warm path")
		}
		for j := 0; j < ref.Dims(); j++ {
			a, b := ref.Coords.Col(j), lay.Coords.Col(j)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workspace run %d: coordinate (%d,%d) differs", run, i, j)
				}
			}
		}
	}
}

// TestWarmStartPriorNotMutated: a warm run only reads the basis of the
// prior layout.
func TestWarmStartPriorNotMutated(t *testing.T) {
	g := gen.Grid2D(16, 16)
	basis := builtBasis(t, g, Options{Seed: 2})
	g0, z0, m0 := basis.g, basis.z, basis.m
	srm, z, m, gamma := append([]float64(nil), basis.srm...), basis.z.Clone(), basis.m.Clone(), append([]float64(nil), basis.gamma...)
	g2 := mutateEdges(t, g, 4, 17)
	_, rep, err := ParHDE(g2, Options{Seed: 2, Basis: basis, Workspace: workspace.New()})
	if err != nil || !rep.Warm {
		t.Fatalf("warm run failed: warm=%v err=%v", rep != nil && rep.Warm, err)
	}
	if basis.g != g0 || basis.z != z0 || basis.m != m0 || !equalBits(basis.srm, srm) ||
		!equalBits(basis.z.Data, z.Data) || !equalBits(basis.m.Data, m.Data) || !equalBits(basis.gamma, gamma) {
		t.Fatal("warm run wrote the basis")
	}
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBasisUpdateMatchesDense: the O(Δ·k²) pencil update equals S̃ᵀL′S̃
// and S̃ᵀW′S̃ formed naively from the explicit Laplacian of the mutated
// graph, where W′ is its degrees (plain orthogonalization: the identity)
// and S̃ is the basis, padded for added vertices, shifted to be
// W′-orthogonal to the constant vector.
func TestBasisUpdateMatchesDense(t *testing.T) {
	g := gen.Grid2D(12, 12)
	// Vertex 13 is interior: deleting two of its edges leaves it degree 2.
	adds := [][2]int32{{0, 143}, {5, 77}, {20, 100}, {64, 76}}
	dels := [][2]int32{{13, 14}, {13, 25}, {60, 61}}
	grown := edgeSet(withEdges(t, g, adds, dels))
	grown[[2]int32{7, 144}], grown[[2]int32{144, 145}], grown[[2]int32{30, 145}] = true, true, true
	cases := []struct {
		name  string
		h     *graph.CSR
		plain bool
	}{
		{"adds", withEdges(t, g, adds, nil), false},
		{"deletes", withEdges(t, g, nil, dels), false},
		{"adds and deletes", withEdges(t, g, adds, dels), false},
		{"plain", withEdges(t, g, adds, dels), true},
		{"added vertices", fromEdgeSet(t, 146, grown), false},
		{"added vertices plain", fromEdgeSet(t, 146, grown), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b0 := builtBasis(t, g, Options{Seed: 4, Subspace: 8, PlainOrtho: tc.plain})
			k := b0.z.Rows
			weights := func(h *graph.CSR) []float64 {
				if tc.plain {
					return ones(h.NumV)
				}
				return h.WeightedDegrees()
			}
			// SᵀWS is diag(dNorms) only up to the orthogonalization's
			// rounding (≈ 1e-12 here), which the cold pencil ignores as
			// well; subtracting that residual leaves the update itself.
			residual := linalg.NewDense(k, k)
			w0 := weights(g)
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					if i != j {
						residual.Set(i, j, linalg.DDot(column(b0, i), w0, column(b0, j)))
					}
				}
			}
			h := tc.h
			flips, ok := diffEdges(g, h, h.NumV)
			if !ok || len(flips) == 0 {
				t.Fatalf("diffEdges found %d flips", len(flips))
			}
			b := b0.update(h, flips, tc.plain)

			n, w := h.NumV, weights(h)
			var vol float64
			for _, x := range w {
				vol += x
			}
			s := linalg.NewDense(n, k)
			for j := 0; j < k; j++ {
				col := s.Col(j)
				copy(col, column(b, j))
				gamma := linalg.DDot(col, w, ones(n)) / vol
				if math.Abs(gamma-b.gamma[j]) > 1e-12 {
					t.Errorf("γ[%d] = %.17g, dense %.17g", j, b.gamma[j], gamma)
				}
				for i := range col {
					col[i] -= gamma
				}
			}
			ls := linalg.NewExplicitLaplacian(h).MulDense(s)
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					wantZ := linalg.Dot(s.Col(i), ls.Col(j))
					wantM := linalg.DDot(s.Col(i), w, s.Col(j)) - residual.At(i, j)
					if math.Abs(b.z.At(i, j)-wantZ) > 1e-12 {
						t.Errorf("Z′(%d,%d) = %.17g, dense %.17g", i, j, b.z.At(i, j), wantZ)
					}
					if math.Abs(b.m.At(i, j)-wantM) > 1e-12 {
						t.Errorf("M′(%d,%d) = %.17g, dense %.17g", i, j, b.m.At(i, j), wantM)
					}
				}
			}
		})
	}
}

// column returns column j of b's S.
func column(b *Basis, j int) []float64 {
	k := b.z.Rows
	col := make([]float64, b.g.NumV)
	for i := range col {
		col[i] = b.srm[i*k+j]
	}
	return col
}

func ones(n int) []float64 {
	x := make([]float64, n)
	linalg.Fill(x, 1)
	return x
}

// TestWarmRoundTripIsCold: adding edges and deleting them again returns,
// to rounding, the basis graph's cold layout.
func TestWarmRoundTripIsCold(t *testing.T) {
	g := gen.Kron(10, 8, 3)
	opt := Options{Seed: 6}
	cold, _, err := ParHDE(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	n := int32(g.NumV)
	added := withEdges(t, g, [][2]int32{{1, n - 1}, {2, n - 2}, {3, n / 2}}, nil)
	back := withEdges(t, g, nil, nil)
	opt.Basis = NewBasis(g, opt)
	_, rep, err := ParHDE(added, opt)
	if err != nil || !rep.Warm || rep.DeltaEdges != 3 {
		t.Fatalf("adding: warm=%v err=%v", rep != nil && rep.Warm, err)
	}
	lay, rep, err := ParHDE(back, opt)
	if err != nil || !rep.Warm || rep.DeltaEdges != 0 {
		t.Fatalf("round trip: warm=%v err=%v", rep != nil && rep.Warm, err)
	}
	for i, v := range lay.Coords.Data {
		if d := math.Abs(v - cold.Coords.Data[i]); d > 1e-12 {
			t.Fatalf("coordinate %d: warm %.17g, cold %.17g", i, v, cold.Coords.Data[i])
		}
	}
}

// TestBasisSharedAcrossRuns: warm runs on several goroutines share one
// unbuilt basis; exactly one builds it, and every run draws the same bits.
func TestBasisSharedAcrossRuns(t *testing.T) {
	g := gen.Grid2D(16, 16)
	g2 := mutateEdges(t, g, 3, 9)
	opt := Options{Seed: 4, Basis: NewBasis(g, Options{Seed: 4})}
	const runs = 4
	lays := make([]*Layout, runs)
	builds := make([]int, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lay, rep, err := ParHDE(g2, opt)
			if err != nil || !rep.Warm {
				t.Errorf("run %d: warm=%v err=%v", i, rep != nil && rep.Warm, err)
				return
			}
			lays[i], builds[i] = lay, len(rep.BFSStats)
		}(i)
	}
	wg.Wait()
	built := 0
	for i, lay := range lays {
		if lay == nil {
			t.FailNow()
		}
		if builds[i] > 0 {
			built++
		}
		if !equalBits(lay.Coords.Data, lays[0].Coords.Data) {
			t.Fatalf("run %d drew different bits", i)
		}
	}
	if built != 1 {
		t.Fatalf("%d runs built the basis, want 1", built)
	}
}
