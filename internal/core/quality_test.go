package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/parallel"
)

// evaluateOracle is Evaluate written the long way, as it was before the
// fused sweeps: per axis, center x on its D-weighted mean, form L·x with
// LapMulVecBudget and take xᵀLx and xᵀDx; then unit-normalize a copy of
// the layout and sum the edge lengths and their squares in two more
// passes. Every intermediate is materialized, so it checks Evaluate's
// algebra (xᵀLx as Σ w·Δx² with no centering, lengths scaled by 1/span
// rather than normalized coordinates) from the outside.
func evaluateOracle(g *graph.CSR, l *Layout) Quality {
	n := g.NumV
	bud := parallel.FixedBudget(1)
	deg := g.WeightedDegrees()
	var dsum float64
	for _, d := range deg {
		dsum += d
	}
	var num, den float64
	tmp := make([]float64, n)
	for k := 0; k < l.Dims(); k++ {
		col := l.Coords.Col(k)
		var wsum float64
		for i := range col {
			wsum += deg[i] * col[i]
		}
		mean := 0.0
		if dsum > 0 {
			mean = wsum / dsum
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = col[i] - mean
		}
		linalg.LapMulVecBudget(bud, g, deg, x, tmp)
		num += linalg.Dot(x, tmp)
		den += linalg.DDot(x, deg, x)
	}
	q := Quality{}
	if den > 0 {
		q.HallRatio = num / den
	}
	norm := l.Clone()
	normalizeUnit(norm)
	var sum, sumSq float64
	for v := int32(0); int(v) < n; v++ {
		for _, u := range g.Neighbors(v) {
			if u <= v {
				continue
			}
			d := edgeLen(norm, v, u)
			sum += d
			sumSq += d * d
		}
	}
	if count := g.NumEdges(); count > 0 {
		mean := sum / float64(count)
		q.MeanEdgeLength = mean
		variance := sumSq/float64(count) - mean*mean
		if variance < 0 {
			variance = 0
		}
		if mean > 0 {
			q.EdgeLengthCV = math.Sqrt(variance) / mean
		}
	}
	return q
}

// normalizeUnit rescales l in place into [0, 1]^p by its widest axis: the
// drawing scale Evaluate measures edge lengths in.
func normalizeUnit(l *Layout) {
	mins := make([]float64, l.Dims())
	span := 0.0
	for k := range mins {
		mn, mx := math.Inf(1), math.Inf(-1)
		for _, v := range l.Coords.Col(k) {
			mn, mx = math.Min(mn, v), math.Max(mx, v)
		}
		mins[k], span = mn, math.Max(span, mx-mn)
	}
	if span == 0 {
		span = 1
	}
	for k, mn := range mins {
		col := l.Coords.Col(k)
		for i := range col {
			col[i] = (col[i] - mn) / span
		}
	}
}

// assertQualityClose holds every field of got to want within tol
// relative (exactly when want is 0).
func assertQualityClose(t *testing.T, name string, got, want Quality, tol float64) {
	t.Helper()
	for _, f := range []struct {
		field     string
		got, want float64
	}{
		{"HallRatio", got.HallRatio, want.HallRatio},
		{"MeanEdgeLength", got.MeanEdgeLength, want.MeanEdgeLength},
		{"EdgeLengthCV", got.EdgeLengthCV, want.EdgeLengthCV},
	} {
		if f.got != f.want && !(math.Abs(f.got-f.want) <= tol*math.Abs(f.want)) {
			t.Fatalf("%s: %s = %.17g, want %.17g (relative tolerance %g)", name, f.field, f.got, f.want, tol)
		}
	}
}

// qualityGraphs are the graphs the oracle and metamorphic tests sweep:
// weighted road, kron, grid and a 3-D mesh, each spanning several tiles
// except the small degenerate ones.
func qualityGraphs(t *testing.T) map[string]*graph.CSR {
	t.Helper()
	// A self loop (dropped at build) and vertex 7, which no edge names.
	loops, err := graph.FromEdges(8, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 4}},
		graph.BuildOptions{KeepAllComponents: true})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.CSR{
		"road_weighted":  gen.WithRandomWeights(gen.Road(100, 100, 3), 9, 5),
		"kron":           graph.LargestComponent(gen.Kron(13, 16, 2)),
		"grid":           gen.Grid2D(90, 110),
		"mesh3d":         gen.Mesh3D(20, 20, 25),
		"loops_isolated": loops,
	}
}

// qualityLayouts returns the layouts each graph is evaluated on: ParHDE
// in 2 and 3 dimensions, random layouts in 2 and 3, and a zero-span
// layout (every vertex at one point).
func qualityLayouts(t *testing.T, g *graph.CSR) map[string]*Layout {
	t.Helper()
	out := map[string]*Layout{
		"random2": RandomLayout(g.NumV, 2, 11),
		"random3": RandomLayout(g.NumV, 3, 12),
	}
	point := linalg.NewDense(g.NumV, 2)
	for i := range point.Data {
		point.Data[i] = 0.25
	}
	out["zero_span"] = &Layout{Coords: point}
	for _, dims := range []int{2, 3} {
		if g.NumV <= 10 {
			break
		}
		lay, _, err := ParHDE(g, Options{Subspace: 10, Seed: 1, Dims: dims})
		if err != nil {
			t.Fatalf("ParHDE dims=%d: %v", dims, err)
		}
		out[map[int]string{2: "parhde2", 3: "parhde3"}[dims]] = lay
	}
	return out
}

// TestEvaluateMatchesOracle holds the fused two-sweep Evaluate to the
// materializing oracle on every field, on weighted and unweighted graphs,
// 2-D and 3-D layouts, random and zero-span layouts, and a graph with a
// self loop and an isolated vertex.
func TestEvaluateMatchesOracle(t *testing.T) {
	for gname, g := range qualityGraphs(t) {
		for lname, lay := range qualityLayouts(t, g) {
			name := gname + "/" + lname
			got, want := Evaluate(g, lay), evaluateOracle(g, lay)
			assertQualityClose(t, name, got, want, 1e-10)
			if lname == "zero_span" && (got.HallRatio != 0 || got.MeanEdgeLength != 0 || got.EdgeLengthCV != 0) {
				t.Fatalf("%s: zero-span layout scored %+v, want all zero", name, got)
			}
		}
	}
}

// TestEvaluateSelfLoopArc feeds Evaluate a CSR that carries a self-loop
// arc, which graph building never produces: the loop adds to the
// vertex's degree (as WeightedDegrees counts it) and nothing to the
// energy or the edge lengths, as in the oracle.
func TestEvaluateSelfLoopArc(t *testing.T) {
	// Path 0–1–2 with a loop at 1 and an isolated vertex 3.
	g := &graph.CSR{NumV: 4, Offsets: []int64{0, 1, 4, 5, 5}, Adj: []int32{1, 0, 1, 2, 1}}
	lay := RandomLayout(g.NumV, 2, 4)
	assertQualityClose(t, "self-loop arc", Evaluate(g, lay), evaluateOracle(g, lay), 1e-12)
}

// TestEvaluateRelabelInvariant: relabelling the vertices through
// graph.Permute, with the layout's rows permuted to match, draws the same
// picture, so every quality field is unchanged up to the summation order.
func TestEvaluateRelabelInvariant(t *testing.T) {
	for gname, g := range qualityGraphs(t) {
		perm := graph.RandomPermutation(g.NumV, 17)
		pg, err := graph.Permute(g, perm, parallel.Live())
		if err != nil {
			t.Fatal(err)
		}
		for lname, lay := range qualityLayouts(t, g) {
			moved := linalg.NewDense(lay.NumVertices(), lay.Dims())
			for k := 0; k < lay.Dims(); k++ {
				src, dst := lay.Coords.Col(k), moved.Col(k)
				for old, nw := range perm {
					dst[nw] = src[old]
				}
			}
			assertQualityClose(t, gname+"/"+lname, Evaluate(pg, &Layout{Coords: moved}), Evaluate(g, lay), 1e-10)
		}
	}
}

// TestEvaluateSimilarityInvariant: translating the coordinates and
// scaling them uniformly moves and magnifies the drawing without changing
// its shape. HallRatio is measured about the D-weighted mean and is a
// ratio of two quadratic forms; the edge lengths are measured after unit
// normalization. So no field moves.
func TestEvaluateSimilarityInvariant(t *testing.T) {
	for gname, g := range qualityGraphs(t) {
		for lname, lay := range qualityLayouts(t, g) {
			want := Evaluate(g, lay)
			for _, c := range []struct {
				name         string
				scale, shift float64
			}{{"translate", 1, 37.5}, {"scale", 6.25, 0}, {"both", 0.125, -3}} {
				moved := lay.Clone()
				for k := 0; k < moved.Dims(); k++ {
					col := moved.Coords.Col(k)
					for i := range col {
						col[i] = c.scale*col[i] + c.shift*float64(k+1)
					}
				}
				assertQualityClose(t, gname+"/"+lname+"/"+c.name, Evaluate(g, moved), want, 1e-9)
			}
		}
	}
}

// TestEvaluateWeightScaleInvariant: multiplying every edge weight by one
// constant multiplies both xᵀLx and xᵀDx by it, so HallRatio is
// unchanged; edge lengths do not read the weights at all.
func TestEvaluateWeightScaleInvariant(t *testing.T) {
	g := gen.WithRandomWeights(gen.Road(100, 100, 3), 9, 5)
	scaled := &graph.CSR{NumV: g.NumV, Offsets: g.Offsets, Adj: g.Adj, Weights: make([]float64, len(g.Weights))}
	for i, w := range g.Weights {
		scaled.Weights[i] = 3.5 * w
	}
	for lname, lay := range qualityLayouts(t, g) {
		assertQualityClose(t, lname, Evaluate(scaled, lay), Evaluate(g, lay), 1e-12)
	}
}

// TestEvaluateAllocBudget holds Evaluate to the "evaluate" row of
// perf/alloc_budget.json under GOMAXPROCS=1, on Road 100² and 300²: the
// one-worker sweeps fold each tile as they go, so the bytes per call are
// the same small constant at both sizes.
func TestEvaluateAllocBudget(t *testing.T) {
	want, ok := loadBudget(t).SteadyState["evaluate"]
	if !ok {
		t.Fatal("perf/alloc_budget.json has no steady_state.evaluate")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var perCall []uint64
	for _, side := range []int{100, 300} {
		g := gen.Road(side, side, 1)
		lay := RandomLayout(g.NumV, 2, 1)
		Evaluate(g, lay)
		allocs := testing.AllocsPerRun(20, func() { evaluateSink = Evaluate(g, lay) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const reps = 20
		for i := 0; i < reps; i++ {
			evaluateSink = Evaluate(g, lay)
		}
		runtime.ReadMemStats(&after)
		bytesPerOp := (after.TotalAlloc - before.TotalAlloc) / reps
		perCall = append(perCall, bytesPerOp)
		t.Logf("Road %d²: %.1f allocs/op, %d bytes/op (budget %.0f allocs, %d bytes)", side, allocs, bytesPerOp, want.AllocsPerOp, want.BytesPerOp)
		if allocs > want.AllocsPerOp || bytesPerOp > want.BytesPerOp {
			t.Errorf("Road %d²: Evaluate allocates %.1f objects / %d bytes per call, budget is %.0f / %d — if intentional, raise evaluate in perf/alloc_budget.json",
				side, allocs, bytesPerOp, want.AllocsPerOp, want.BytesPerOp)
		}
	}
	if perCall[1] > perCall[0] {
		t.Errorf("bytes per call grow with n: %d at Road 100², %d at Road 300²", perCall[0], perCall[1])
	}
}
