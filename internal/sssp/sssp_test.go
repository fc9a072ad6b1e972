package sssp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// bud4 fans every frontier of 2·MinGrain or more out across four workers,
// whatever GOMAXPROCS is.
var bud4 = parallel.FixedBudget(4)

func weightedFixture(seed uint64) *graph.CSR {
	return gen.WithRandomWeights(gen.Grid2D(25, 25), 10, seed)
}

func TestDeltaSteppingMatchesDijkstraFixtures(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"grid":  weightedFixture(1),
		"kron":  gen.WithRandomWeights(gen.Kron(9, 8, 2), 20, 2),
		"road":  gen.WithRandomWeights(gen.Road(30, 30, 3), 5, 3),
		"cycle": gen.WithRandomWeights(gen.Cycle(777), 9, 4),
	}
	for name, g := range graphs {
		want := make([]float64, g.NumV)
		got := make([]float64, g.NumV)
		for _, delta := range []float64{0.5, 1, 3, 25} {
			Dijkstra(g, 0, want)
			DeltaStepping(bud4, g, 0, delta, got)
			for i := range want {
				if math.Abs(want[i]-got[i]) > 1e-9 {
					t.Fatalf("%s Δ=%g: dist[%d] = %g, want %g", name, delta, i, got[i], want[i])
				}
			}
		}
	}
}

// TestDeltaSteppingBudgetInvariance: on a graph whose relaxation rounds
// cross 2·MinGrain (so they fan out rather than run inline), the distances
// under budgets 1, 2 and 4 are bitwise those of Dijkstra, at the heuristic
// Δ and at a Δ above every distance (one bucket, Bellman-Ford rounds).
func TestDeltaSteppingBudgetInvariance(t *testing.T) {
	base := graph.LargestComponent(gen.Kron(14, 8, 5))
	g := gen.WithRandomWeights(base, 20, 7)
	// With Δ above every distance the whole graph is bucket 0, and round
	// k's frontier holds every vertex first reached at hop k-1: one BFS
	// level of 2·MinGrain vertices is a round that fans out.
	hops := make([]int32, g.NumV)
	bfs.Serial(base, 0, hops)
	level := map[int32]int{}
	widest := 0
	for _, h := range hops {
		level[h]++
		widest = max(widest, level[h])
	}
	if widest < 2*parallel.MinGrain {
		t.Fatalf("widest BFS level %d < 2·MinGrain: no round fans out", widest)
	}
	want := make([]float64, g.NumV)
	Dijkstra(g, 0, want)
	for _, delta := range []float64{SuggestDelta(g), 1e6} {
		for _, p := range []int{1, 2, 4} {
			got := make([]float64, g.NumV)
			DeltaStepping(parallel.FixedBudget(p), g, 0, delta, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Δ=%g workers=%d: dist[%d] = %v, want %v (bitwise, as Dijkstra)", delta, p, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDeltaSteppingProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8 + r.Intn(150)
		edges := make([]graph.Edge, 3*n)
		for i := range edges {
			edges[i] = graph.Edge{
				U: int32(r.Intn(n)), V: int32(r.Intn(n)),
				W: 1 + float64(r.Intn(30)),
			}
		}
		g, err := graph.FromEdges(n, edges, graph.BuildOptions{Weighted: true})
		if err != nil || g.NumV < 2 {
			return true
		}
		src := int32(r.Intn(g.NumV))
		delta := []float64{0.7, 2, 11}[r.Intn(3)]
		want := make([]float64, g.NumV)
		got := make([]float64, g.NumV)
		Dijkstra(g, src, want)
		DeltaStepping(bud4, g, src, delta, got)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-9 {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnitWeightsMatchBFS(t *testing.T) {
	// §4.4: with unit weights, SSSP distances must equal BFS hop counts.
	base := gen.Road(40, 40, 7)
	g := base.WithUnitWeights()
	hops := make([]int32, g.NumV)
	bfs.Serial(base, 0, hops)
	dist := make([]float64, g.NumV)
	DeltaStepping(bud4, g, 0, 1, dist)
	for i := range hops {
		if float64(hops[i]) != dist[i] {
			t.Fatalf("vertex %d: sssp %g, bfs %d", i, dist[i], hops[i])
		}
	}
}

func TestDeltaSteppingDisconnected(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1, W: 2}, {U: 2, V: 3, W: 2}}
	g, err := graph.FromEdges(4, edges, graph.BuildOptions{Weighted: true, KeepAllComponents: true})
	if err != nil {
		t.Fatal(err)
	}
	dist := make([]float64, 4)
	DeltaStepping(bud4, g, 0, 1, dist)
	if !math.IsInf(dist[2], 1) || !math.IsInf(dist[3], 1) {
		t.Fatalf("unreachable distances %v", dist)
	}
	if dist[0] != 0 || dist[1] != 2 {
		t.Fatalf("reachable distances wrong: %v", dist)
	}
}

func TestDeltaSteppingStats(t *testing.T) {
	g := weightedFixture(9)
	dist := make([]float64, g.NumV)
	st := DeltaStepping(bud4, g, 0, 2, dist)
	if st.Buckets == 0 || st.LightPhases == 0 || st.Relaxations == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
	if st.Relaxations < int64(g.NumV-1) {
		t.Fatalf("fewer relaxations (%d) than reachable vertices", st.Relaxations)
	}
}

func TestDeltaSensitivity(t *testing.T) {
	// Correctness must hold at extreme Δ: Δ ≥ max weight degenerates
	// toward Bellman-Ford rounds, tiny Δ toward Dijkstra.
	g := weightedFixture(11)
	want := make([]float64, g.NumV)
	Dijkstra(g, 5, want)
	for _, delta := range []float64{0.1, 1000} {
		got := make([]float64, g.NumV)
		DeltaStepping(bud4, g, 5, delta, got)
		for i := range want {
			if math.Abs(want[i]-got[i]) > 1e-9 {
				t.Fatalf("Δ=%g wrong at %d", delta, i)
			}
		}
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	unweighted := gen.Path(5)
	assertPanics(t, func() { DeltaStepping(bud4, unweighted, 0, 1, make([]float64, 5)) })
	assertPanics(t, func() { Dijkstra(unweighted, 0, make([]float64, 5)) })
	weighted := weightedFixture(1)
	assertPanics(t, func() { DeltaStepping(bud4, weighted, 0, 0, make([]float64, weighted.NumV)) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestSuggestDelta(t *testing.T) {
	g := weightedFixture(13)
	if d := SuggestDelta(g); d <= 0 {
		t.Fatalf("SuggestDelta = %g", d)
	}
	if d := SuggestDelta(gen.Path(5)); d != 1 {
		t.Fatalf("unweighted SuggestDelta = %g, want 1", d)
	}
}
