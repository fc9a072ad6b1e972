package core

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/ortho"
	"repro/internal/pivot"
)

func TestParHDEOnPathRecoversLine(t *testing.T) {
	// The second smallest Laplacian eigenvector of a path is monotone
	// (the Fiedler vector), so the first HDE axis must order the path
	// monotonically.
	g := gen.Path(200)
	lay, rep, err := ParHDE(g, Options{Subspace: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lay.Dims() != 2 || lay.NumVertices() != 200 {
		t.Fatalf("layout shape %dx%d", lay.NumVertices(), lay.Dims())
	}
	if rep.KeptColumns < 2 {
		t.Fatalf("kept %d columns", rep.KeptColumns)
	}
	x := lay.X()
	inc, dec := 0, 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[i-1] {
			inc++
		} else if x[i] < x[i-1] {
			dec++
		}
	}
	if inc != len(x)-1 && dec != len(x)-1 {
		t.Fatalf("first axis not monotone along path: %d up, %d down", inc, dec)
	}
}

func TestParHDEBeatsRandomLayoutQuality(t *testing.T) {
	// Meshes have tiny λ2, so spectral layouts should beat random by a wide
	// margin; expanders (kron) have λ2 = Θ(1) and only a modest win is
	// information-theoretically possible.
	cases := []struct {
		name   string
		g      *graph.CSR
		factor float64
	}{
		{"plate", gen.PlateWithHoles(30, 30), 2},
		{"grid", gen.Grid2D(25, 25), 2},
		{"kron", gen.Kron(9, 8, 2), 1},
	}
	for _, c := range cases {
		lay, _, err := ParHDE(c.g, Options{Subspace: 10, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		hde := Evaluate(c.g, lay)
		rnd := Evaluate(c.g, RandomLayout(c.g.NumV, 2, 3))
		if hde.HallRatio >= rnd.HallRatio/c.factor {
			t.Fatalf("%s: HDE Hall ratio %.4g not below random %.4g / %g", c.name, hde.HallRatio, rnd.HallRatio, c.factor)
		}
	}
}

func TestParHDEDeterministicForSeed(t *testing.T) {
	g := gen.Grid2D(20, 20)
	a, _, err := ParHDE(g, Options{Subspace: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ParHDE(g, Options{Subspace: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Coords.Data {
		if a.Coords.Data[i] != b.Coords.Data[i] {
			t.Fatal("same seed produced different layouts")
		}
	}
}

func TestParHDERejectsDisconnected(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}
	g, err := graph.FromEdges(4, edges, graph.BuildOptions{KeepAllComponents: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ParHDE(g, Options{Subspace: 3}); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestParHDERejectsTinyGraph(t *testing.T) {
	g, _ := graph.FromEdges(1, nil, graph.BuildOptions{KeepAllComponents: true})
	if _, _, err := ParHDE(g, Options{}); err == nil {
		t.Fatal("1-vertex graph accepted")
	}
}

func TestParHDESubspaceClamp(t *testing.T) {
	// s ≥ n must clamp rather than loop forever.
	g := gen.Complete(6)
	lay, rep, err := ParHDE(g, Options{Subspace: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lay.NumVertices() != 6 {
		t.Fatal("wrong layout size")
	}
	if len(rep.Sources) >= 6+1 {
		t.Fatalf("%d sources for 6 vertices", len(rep.Sources))
	}
}

func TestParHDEVariantsAgreeOnQuality(t *testing.T) {
	// CGS vs MGS and plain vs D-ortho must all produce sane layouts of
	// similar quality (identical drawings are not guaranteed).
	g := gen.PlateWithHoles(25, 25)
	base, _, err := ParHDE(g, Options{Subspace: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	baseQ := Evaluate(g, base).HallRatio
	for name, opt := range map[string]Options{
		"cgs":        {Subspace: 10, Seed: 4, Ortho: ortho.CGS},
		"plain":      {Subspace: 10, Seed: 4, PlainOrtho: true},
		"random-piv": {Subspace: 10, Seed: 4, Pivots: pivot.Random},
	} {
		lay, _, err := ParHDE(g, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		q := Evaluate(g, lay).HallRatio
		if q > 8*baseQ+1e-9 {
			t.Fatalf("%s quality %.4g vs base %.4g", name, q, baseQ)
		}
	}
}

func TestParHDEWeighted(t *testing.T) {
	g := gen.WithRandomWeights(gen.Grid2D(15, 15), 5, 7)
	lay, rep, err := ParHDE(g, Options{Subspace: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if lay.NumVertices() != g.NumV {
		t.Fatal("weighted layout wrong size")
	}
	if rep.Breakdown.BFSTraversal == 0 {
		t.Fatal("no SSSP time recorded")
	}
}

func TestBreakdownAccounting(t *testing.T) {
	g := gen.Kron(10, 8, 6)
	_, rep, err := ParHDE(g, Options{Subspace: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bd := rep.Breakdown
	sum := bd.BFS() + bd.DOrtho + bd.TripleProd() + bd.Other()
	if sum > bd.Total {
		t.Fatalf("phase sum %v exceeds total %v", sum, bd.Total)
	}
	if float64(sum) < 0.5*float64(bd.Total) {
		t.Fatalf("phases %v account for under half of total %v", sum, bd.Total)
	}
	bp, tp, op, rp := bd.Percentages()
	if tot := bp + tp + op + rp; tot < 50 || tot > 100.001 {
		t.Fatalf("percentages sum to %.1f", tot)
	}
	if bd.String() == "" {
		t.Fatal("empty breakdown string")
	}
}

func TestPHDEAndPivotMDSProduceLayouts(t *testing.T) {
	g := gen.PlateWithHoles(25, 25)
	for name, f := range map[string]func(*graph.CSR, Options) (*Layout, *Report, error){
		"phde":     PHDE,
		"pivotmds": PivotMDS,
	} {
		lay, rep, err := f(g, Options{Subspace: 10, Seed: 6})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lay.NumVertices() != g.NumV || lay.Dims() != 2 {
			t.Fatalf("%s: bad shape", name)
		}
		if rep.Breakdown.Centering == 0 {
			t.Fatalf("%s: no centering time recorded", name)
		}
		// PCA variants maximize scatter; top eigenvalues must be positive
		// and descending.
		if len(rep.Eigenvalues) != 2 || rep.Eigenvalues[0] < rep.Eigenvalues[1] || rep.Eigenvalues[1] < 0 {
			t.Fatalf("%s: eigenvalues %v", name, rep.Eigenvalues)
		}
		q := Evaluate(g, lay)
		r := Evaluate(g, RandomLayout(g.NumV, 2, 1))
		if q.HallRatio >= r.HallRatio {
			t.Fatalf("%s: quality %.4g not better than random %.4g", name, q.HallRatio, r.HallRatio)
		}
	}
}

func TestPriorMatchesParHDEQuality(t *testing.T) {
	g := gen.PlateWithHoles(22, 22)
	par, _, err := ParHDE(g, Options{Subspace: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pri, rep, err := Prior(g, Options{Subspace: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pq := Evaluate(g, pri).HallRatio
	bq := Evaluate(g, par).HallRatio
	if pq > 4*bq+1e-9 || bq > 4*pq+1e-9 {
		t.Fatalf("prior quality %.4g vs parhde %.4g diverge", pq, bq)
	}
	if rep.Breakdown.LapBuild == 0 {
		t.Fatal("prior did not record Laplacian build time")
	}
	// Its traversal is a plain BFS: a weighted graph is refused, not laid
	// out by hop count.
	if _, _, err := Prior(gen.WithRandomWeights(gen.Grid2D(5, 5), 3, 1), Options{Subspace: 4}); err == nil {
		t.Fatal("weighted prior accepted")
	}
}

func TestEigenvaluesApproximateSpectrum(t *testing.T) {
	// ParHDE's projected eigenvalues upper-bound the true generalized
	// eigenvalues (Rayleigh-Ritz) and should be small positive numbers on
	// a mesh.
	g := gen.Grid2D(20, 20)
	_, rep, err := ParHDE(g, Options{Subspace: 12, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Eigenvalues {
		if v < -1e-9 || v > 2.0 {
			t.Fatalf("generalized eigenvalue estimate %g outside [0,2]", v)
		}
	}
	if rep.Eigenvalues[0] > rep.Eigenvalues[1] {
		t.Fatalf("eigenvalues not ascending: %v", rep.Eigenvalues)
	}
}

func TestLayoutHelpers(t *testing.T) {
	coords := linalg.NewDense(3, 2)
	copy(coords.Col(0), []float64{0, 5, 10})
	copy(coords.Col(1), []float64{-2, 0, 2})
	l := &Layout{Coords: coords}
	min, max := l.Bounds()
	if min[0] != 0 || max[0] != 10 || min[1] != -2 || max[1] != 2 {
		t.Fatalf("bounds %v %v", min, max)
	}
	l.NormalizeUnit()
	min, max = l.Bounds()
	if min[0] != 0 || math.Abs(max[0]-1) > 1e-12 {
		t.Fatalf("normalized x bounds [%g,%g]", min[0], max[0])
	}
	// Aspect ratio preserved: y span (4) scaled by same factor as x (10).
	if math.Abs((max[1]-min[1])-0.4) > 1e-12 {
		t.Fatalf("y span %g, want 0.4", max[1]-min[1])
	}
	c := l.Clone()
	c.X()[0] = 99
	if l.X()[0] == 99 {
		t.Fatal("Clone aliases")
	}
}

func TestZoomNeighborhood(t *testing.T) {
	g := gen.PlateWithHoles(40, 40)
	z, err := Zoom(g, int32(g.NumV/2), 10, Options{Subspace: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if z.Subgraph.NumV < 50 || z.Subgraph.NumV >= g.NumV {
		t.Fatalf("zoom subgraph size %d", z.Subgraph.NumV)
	}
	if len(z.Orig) != z.Subgraph.NumV || z.Layout.NumVertices() != z.Subgraph.NumV {
		t.Fatal("zoom mapping sizes inconsistent")
	}
	if z.Orig[z.Center] != int32(g.NumV/2) {
		t.Fatal("zoom center mapping wrong")
	}
	// Every subgraph vertex must be within 10 hops of the center: verify
	// via the subgraph itself being connected.
	if _, count := graph.Components(z.Subgraph); count != 1 {
		t.Fatal("zoom subgraph disconnected")
	}
	// Errors.
	if _, err := Zoom(g, -1, 10, Options{}); err == nil {
		t.Fatal("negative center accepted")
	}
	if _, err := Zoom(g, 0, 0, Options{}); err == nil {
		t.Fatal("zero hops accepted")
	}
}

func TestQualityMetricsSane(t *testing.T) {
	g := gen.Grid2D(15, 15)
	lay, _, err := ParHDE(g, Options{Subspace: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	q := Evaluate(g, lay)
	if q.HallRatio <= 0 || math.IsNaN(q.HallRatio) {
		t.Fatalf("HallRatio %g", q.HallRatio)
	}
	if q.MeanEdgeLength <= 0 || q.MeanEdgeLength > 1 {
		t.Fatalf("MeanEdgeLength %g", q.MeanEdgeLength)
	}
	if q.EdgeLengthCV < 0 {
		t.Fatalf("EdgeLengthCV %g", q.EdgeLengthCV)
	}
}

func TestDistanceCorrelation(t *testing.T) {
	g := gen.Grid2D(20, 20)
	lay, _, err := ParHDE(g, Options{Subspace: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hde := DistanceCorrelation(g, lay, 10, 3)
	rnd := DistanceCorrelation(g, RandomLayout(g.NumV, 2, 4), 10, 3)
	if hde < 0.8 {
		t.Fatalf("HDE distance correlation %.3f too low on a grid", hde)
	}
	if hde <= rnd {
		t.Fatalf("HDE correlation %.3f not above random %.3f", hde, rnd)
	}
	// Degenerate inputs.
	if c := DistanceCorrelation(g, lay, 0, 1); c != 0 {
		t.Fatalf("zero sources returned %g", c)
	}
	tiny, _ := graph.FromEdges(1, nil, graph.BuildOptions{KeepAllComponents: true})
	if c := DistanceCorrelation(tiny, RandomLayout(1, 2, 1), 1, 1); c != 0 {
		t.Fatalf("1-vertex correlation %g", c)
	}
}

func TestParHDE3D(t *testing.T) {
	// p=3 layouts (the paper's "p is chosen to be 2 or 3").
	g := gen.Mesh3D(8, 8, 8)
	lay, rep, err := ParHDE(g, Options{Subspace: 12, Dims: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if lay.Dims() != 3 {
		t.Fatalf("dims = %d", lay.Dims())
	}
	if len(rep.Eigenvalues) != 3 {
		t.Fatalf("eigenvalues %v", rep.Eigenvalues)
	}
	// The third axis must carry real variance (not collapse to zero).
	z := lay.Coords.Col(2)
	var spread float64
	for _, v := range z {
		spread += v * v
	}
	if spread < 1e-12 {
		t.Fatal("third axis degenerate")
	}
	q := Evaluate(g, lay)
	r := Evaluate(g, RandomLayout(g.NumV, 3, 2))
	if q.HallRatio >= r.HallRatio/2 {
		t.Fatalf("3D quality %.4g vs random %.4g", q.HallRatio, r.HallRatio)
	}
}

func TestOptionsDefaultsAndClamps(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Subspace != DefaultSubspace || o.Dims != 2 {
		t.Fatalf("defaults %+v", o)
	}
	o = Options{Subspace: -5, Dims: -1}.withDefaults()
	if o.Subspace != DefaultSubspace || o.Dims != 2 {
		t.Fatalf("negative clamps %+v", o)
	}
	// Dims larger than subspace: must error cleanly, not panic.
	g := gen.Grid2D(10, 10)
	if _, _, err := ParHDE(g, Options{Subspace: 2, Dims: 4, Seed: 1}); err == nil {
		t.Fatal("dims > kept columns accepted")
	}
}

// TestTripleProdBreakdownSplit: the one-walk TripleProd still reports Fig.
// 5's two halves: Breakdown.LS and Breakdown.Gemm are both positive, and
// their sum, the phase's wall time, fits between the "tripleprod" and
// "eigensolve" notifications.
func TestTripleProdBreakdownSplit(t *testing.T) {
	g := graph.LargestComponent(gen.Kron(13, 8, 13))
	for _, workers := range []int{1, 2} {
		var start, end time.Time
		ctx := WithPhaseNotify(context.Background(), func(phase string) {
			switch phase {
			case "tripleprod":
				start = time.Now()
			case "eigensolve":
				end = time.Now()
			}
		})
		_, rep, err := ParHDECtx(ctx, g, Options{Subspace: 20, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		bd := rep.Breakdown
		phase := end.Sub(start)
		if bd.LS <= 0 || bd.Gemm <= 0 || bd.TripleProd() > phase {
			t.Fatalf("workers=%d: LS %v + Gemm %v against a %v TripleProd phase", workers, bd.LS, bd.Gemm, phase)
		}
	}
}
