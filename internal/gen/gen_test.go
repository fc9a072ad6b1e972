package gen

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/parallel"
)

func assertConnectedValid(t *testing.T, g *graph.CSR, name string) {
	t.Helper()
	if err := g.Validate(parallel.Live()); err != nil {
		t.Fatalf("%s: invalid graph: %v", name, err)
	}
	if _, count := graph.Components(g); count != 1 {
		t.Fatalf("%s: %d components, want 1", name, count)
	}
}

func TestUrandShape(t *testing.T) {
	g := Urand(10, 16, 1)
	assertConnectedValid(t, g, "urand")
	n := 1 << 10
	if g.NumV < n*9/10 {
		t.Fatalf("urand LCC too small: %d of %d", g.NumV, n)
	}
	avg := float64(2*g.NumEdges()) / float64(g.NumV)
	if avg < 10 || avg > 16 {
		t.Fatalf("urand average degree %.1f outside [10,16]", avg)
	}
}

func TestUrandDeterminism(t *testing.T) {
	a, b := Urand(8, 8, 7), Urand(8, 8, 7)
	if a.NumV != b.NumV || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed, different graph")
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			t.Fatal("same seed, different adjacency")
		}
	}
	c := Urand(8, 8, 8)
	if c.NumEdges() == a.NumEdges() && c.NumV == a.NumV {
		same := true
		for i := range a.Adj {
			if i >= len(c.Adj) || a.Adj[i] != c.Adj[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestKronSkewAndShape(t *testing.T) {
	g := Kron(10, 8, 3)
	assertConnectedValid(t, g, "kron")
	// R-MAT degree distributions are heavily skewed: the max degree should
	// far exceed the average.
	avg := float64(2*g.NumEdges()) / float64(g.NumV)
	if float64(g.MaxDegree()) < 4*avg {
		t.Fatalf("kron max degree %d not skewed vs avg %.1f", g.MaxDegree(), avg)
	}
}

func TestChungLuSkew(t *testing.T) {
	g := ChungLu(2000, 12, 2.2, 5)
	assertConnectedValid(t, g, "chunglu")
	avg := float64(2*g.NumEdges()) / float64(g.NumV)
	if float64(g.MaxDegree()) < 5*avg {
		t.Fatalf("chunglu max degree %d not skewed vs avg %.1f", g.MaxDegree(), avg)
	}
}

func TestGrid2DStructure(t *testing.T) {
	g := Grid2D(7, 9)
	assertConnectedValid(t, g, "grid2d")
	if g.NumV != 63 {
		t.Fatalf("n = %d", g.NumV)
	}
	// m = rows*(cols-1) + (rows-1)*cols
	want := int64(7*8 + 6*9)
	if g.NumEdges() != want {
		t.Fatalf("m = %d, want %d", g.NumEdges(), want)
	}
	// Corner degree 2, interior degree 4.
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree %d", g.Degree(0))
	}
	if g.Degree(int32(1*9+1)) != 4 {
		t.Fatalf("interior degree %d", g.Degree(10))
	}
}

func TestRoadIsSparseHighDiameter(t *testing.T) {
	g := Road(40, 40, 2)
	assertConnectedValid(t, g, "road")
	avg := float64(2*g.NumEdges()) / float64(g.NumV)
	if avg > 3.2 {
		t.Fatalf("road average degree %.2f too high", avg)
	}
}

func TestMesh3DStructure(t *testing.T) {
	g := Mesh3D(4, 5, 6)
	assertConnectedValid(t, g, "mesh3d")
	if g.NumV != 120 {
		t.Fatalf("n = %d", g.NumV)
	}
	want := int64(3*5*6 + 4*4*6 + 4*5*5)
	if g.NumEdges() != want {
		t.Fatalf("m = %d, want %d", g.NumEdges(), want)
	}
}

func TestPowerGrid(t *testing.T) {
	g := PowerGrid(20, 20, 4)
	assertConnectedValid(t, g, "powergrid")
	if g.NumV < 700 {
		t.Fatalf("powergrid LCC too small: %d", g.NumV)
	}
}

func TestWebGraphLocality(t *testing.T) {
	g := WebGraph(4000, 12, 6)
	assertConnectedValid(t, g, "web")
	// The defining property: mean adjacency gap far below the uniform
	// random expectation (~n/3).
	gs := graph.GapSummary(g)
	if gs.Mean > float64(g.NumV)/8 {
		t.Fatalf("web graph mean gap %.0f not locality-friendly (n=%d)", gs.Mean, g.NumV)
	}
	ur := Urand(12, 12, 6)
	ugs := graph.GapSummary(ur)
	if gs.Mean >= ugs.Mean {
		t.Fatalf("web mean gap %.0f not below urand %.0f", gs.Mean, ugs.Mean)
	}
}

func TestPlateWithHoles(t *testing.T) {
	g := PlateWithHoles(60, 60)
	assertConnectedValid(t, g, "plate")
	// Holes remove roughly 4·π·(0.12·60)² ≈ 650 vertices.
	if g.NumV >= 3600 || g.NumV < 2600 {
		t.Fatalf("plate n = %d, want within (2600, 3600)", g.NumV)
	}
}

func TestCountyMesh(t *testing.T) {
	g := CountyMesh(30, 30, 9)
	assertConnectedValid(t, g, "county")
	avg := float64(2*g.NumEdges()) / float64(g.NumV)
	if avg < 3.5 || avg > 5.5 {
		t.Fatalf("county mesh average degree %.2f outside planar range", avg)
	}
}

func TestSimpleGraphs(t *testing.T) {
	if g := Path(10); g.NumEdges() != 9 || g.Degree(0) != 1 || g.Degree(5) != 2 {
		t.Fatal("path malformed")
	}
	if g := Cycle(10); g.NumEdges() != 10 || g.Degree(0) != 2 {
		t.Fatal("cycle malformed")
	}
	if g := Star(10); g.NumEdges() != 9 || g.Degree(0) != 9 {
		t.Fatal("star malformed")
	}
	if g := Complete(6); g.NumEdges() != 15 || g.Degree(3) != 5 {
		t.Fatal("complete malformed")
	}
	if g := BinaryTree(15); g.NumEdges() != 14 || g.Degree(0) != 2 {
		t.Fatal("tree malformed")
	}
	for _, g := range []*graph.CSR{Path(10), Cycle(10), Star(10), Complete(6), BinaryTree(15)} {
		assertConnectedValid(t, g, "simple")
	}
}

func TestWithRandomWeightsSymmetric(t *testing.T) {
	g := Grid2D(8, 8)
	wg := WithRandomWeights(g, 10, 3)
	if err := wg.Validate(parallel.Live()); err != nil {
		t.Fatal(err)
	}
	for _, w := range wg.Weights {
		if w < 1 || w > 10 {
			t.Fatalf("weight %g outside [1,10]", w)
		}
	}
}

func TestRNGProperties(t *testing.T) {
	r := NewRNG(1)
	err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Float64 in [0,1).
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g", f)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(2000, 6, 0.1, 3)
	assertConnectedValid(t, g, "ws")
	avg := float64(2*g.NumEdges()) / float64(g.NumV)
	if avg < 4.5 || avg > 6.5 {
		t.Fatalf("ws average degree %.2f", avg)
	}
	// Small-world: diameter far below the beta=0 ring's n/k.
	if d := graph.PseudoDiameter(g, 0); d > 100 {
		t.Fatalf("ws diameter %d not small-world", d)
	}
	// Odd k is rounded up rather than rejected.
	g2 := WattsStrogatz(200, 3, 0.05, 4)
	assertConnectedValid(t, g2, "ws-oddk")
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(3000, 4, 5)
	assertConnectedValid(t, g, "ba")
	avg := float64(2*g.NumEdges()) / float64(g.NumV)
	if avg < 6 || avg > 9 {
		t.Fatalf("ba average degree %.2f, want ~8", avg)
	}
	// Preferential attachment: heavy skew.
	if float64(g.MaxDegree()) < 6*avg {
		t.Fatalf("ba max degree %d not skewed vs avg %.1f", g.MaxDegree(), avg)
	}
	if gi := graph.Gini(g); gi < 0.25 {
		t.Fatalf("ba degree Gini %.3f too uniform", gi)
	}
}

func TestRandomGeometric(t *testing.T) {
	g := RandomGeometric(4000, 0.03, 11)
	assertConnectedValid(t, g, "rgg")
	avg := float64(2*g.NumEdges()) / float64(g.NumV)
	// Expected degree ≈ nπr² ≈ 11.3.
	if avg < 6 || avg > 16 {
		t.Fatalf("rgg average degree %.1f", avg)
	}
	// Sweep ordering gives strong id locality: mean gap well below n/3.
	gs := graph.GapSummary(g)
	if gs.Mean > float64(g.NumV)/10 {
		t.Fatalf("rgg mean gap %.0f not local", gs.Mean)
	}
}
