package bfs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

func TestSerialPathDistances(t *testing.T) {
	g := gen.Path(100)
	dist := make([]int32, g.NumV)
	levels := Serial(g, 0, dist)
	if levels != 100 {
		t.Fatalf("levels = %d, want 100", levels)
	}
	for i, d := range dist {
		if d != int32(i) {
			t.Fatalf("dist[%d] = %d", i, d)
		}
	}
}

func TestParallelMatchesSerialOnFixtures(t *testing.T) {
	fixtures := map[string]*graph.CSR{
		"path":  gen.Path(2000),
		"cycle": gen.Cycle(999),
		"star":  gen.Star(5000),
		"grid":  gen.Grid2D(50, 40),
		"tree":  gen.BinaryTree(4095),
		"kron":  gen.Kron(10, 8, 1),
		"urand": gen.Urand(10, 10, 2),
		"web":   gen.WebGraph(3000, 10, 3),
	}
	for name, g := range fixtures {
		runner := NewRunner(g, Options{}, nil, parallel.Live())
		want := make([]int32, g.NumV)
		got := make([]int32, g.NumV)
		for _, src := range []int32{0, int32(g.NumV / 2), int32(g.NumV - 1)} {
			Serial(g, src, want)
			st := runner.Distances(src, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s src=%d: dist[%d] = %d, want %d", name, src, i, got[i], want[i])
				}
			}
			if st.Levels == 0 {
				t.Fatalf("%s: zero levels", name)
			}
		}
	}
}

func TestParallelMatchesSerialProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(300)
		edges := make([]graph.Edge, 2*n)
		for i := range edges {
			edges[i] = graph.Edge{U: int32(r.Intn(n)), V: int32(r.Intn(n))}
		}
		g, err := graph.FromEdges(n, edges, graph.BuildOptions{})
		if err != nil || g.NumV < 2 {
			return true
		}
		src := int32(r.Intn(g.NumV))
		want := make([]int32, g.NumV)
		got := make([]int32, g.NumV)
		Serial(g, src, want)
		NewRunner(g, Options{}, nil, parallel.Live()).Distances(src, got)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestForceTopDownMatchesDefault(t *testing.T) {
	g := gen.Kron(11, 10, 5)
	src := int32(0)
	a := make([]int32, g.NumV)
	b := make([]int32, g.NumV)
	stDefault := NewRunner(g, Options{}, nil, parallel.Live()).Distances(src, a)
	stTopDown := NewRunner(g, Options{ForceTopDown: true}, nil, parallel.Live()).Distances(src, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("dist[%d]: %d vs %d", i, a[i], b[i])
		}
	}
	if stTopDown.BottomUpSteps != 0 {
		t.Fatalf("ForceTopDown ran %d bottom-up steps", stTopDown.BottomUpSteps)
	}
	// Direction optimization must reduce scanned edges on skewed
	// low-diameter graphs (the γ < 1 of Table 1).
	if stDefault.BottomUpSteps > 0 && stDefault.ScannedEdges >= stTopDown.ScannedEdges {
		t.Fatalf("direction optimization scanned %d ≥ top-down %d",
			stDefault.ScannedEdges, stTopDown.ScannedEdges)
	}
}

func TestDistanceAxiomsProperty(t *testing.T) {
	// BFS distances satisfy: d(src)=0; every edge differs by at most 1;
	// every reached vertex ≠ src has a neighbor at d−1.
	g := gen.Urand(9, 8, 11)
	runner := NewRunner(g, Options{}, nil, parallel.Live())
	dist := make([]int32, g.NumV)
	for trial := 0; trial < 5; trial++ {
		src := int32((trial * 131) % g.NumV)
		runner.Distances(src, dist)
		if dist[src] != 0 {
			t.Fatalf("dist[src] = %d", dist[src])
		}
		for v := int32(0); int(v) < g.NumV; v++ {
			if dist[v] == Unreached {
				t.Fatalf("vertex %d unreached in connected graph", v)
			}
			hasParent := dist[v] == 0
			for _, u := range g.Neighbors(v) {
				diff := dist[v] - dist[u]
				if diff < -1 || diff > 1 {
					t.Fatalf("edge {%d,%d}: |%d − %d| > 1", v, u, dist[v], dist[u])
				}
				if dist[u] == dist[v]-1 {
					hasParent = true
				}
			}
			if !hasParent {
				t.Fatalf("vertex %d at distance %d has no parent", v, dist[v])
			}
		}
	}
}

func TestDisconnectedMarksUnreached(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}
	g, err := graph.FromEdges(4, edges, graph.BuildOptions{KeepAllComponents: true})
	if err != nil {
		t.Fatal(err)
	}
	dist := make([]int32, 4)
	NewRunner(g, Options{}, nil, parallel.Live()).Distances(0, dist)
	if dist[2] != Unreached || dist[3] != Unreached {
		t.Fatalf("cross-component distances %d %d, want Unreached", dist[2], dist[3])
	}
	if dist[0] != 0 || dist[1] != 1 {
		t.Fatalf("in-component distances wrong: %v", dist)
	}
}

func TestStarTraversalStats(t *testing.T) {
	g := gen.Star(100000)
	dist := make([]int32, g.NumV)
	st := NewRunner(g, Options{}, nil, parallel.Live()).Distances(0, dist)
	if st.Levels != 2 {
		t.Fatalf("star levels = %d, want 2", st.Levels)
	}
	for i := 1; i < g.NumV; i++ {
		if dist[i] != 1 {
			t.Fatalf("leaf %d at distance %d", i, dist[i])
		}
	}
}

func TestRunnerReuseAcrossSources(t *testing.T) {
	g := gen.Grid2D(30, 30)
	runner := NewRunner(g, Options{}, nil, parallel.Live())
	want := make([]int32, g.NumV)
	got := make([]int32, g.NumV)
	for src := int32(0); src < 10; src++ {
		Serial(g, src, want)
		runner.Distances(src, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("reused runner wrong at src=%d", src)
			}
		}
	}
}

func TestBitmap(t *testing.T) {
	b := NewBitmap(200)
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(199)
	for _, i := range []int32{0, 63, 64, 199} {
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Get(100) {
		t.Fatal("bit 100 spuriously set")
	}
	b.Reset()
	if b.Get(0) || b.Get(199) {
		t.Fatal("reset did not clear")
	}
	b.Set(5)
	o := NewBitmap(200)
	o.Set(7)
	b.Swap(o)
	if !b.Get(7) || b.Get(5) || !o.Get(5) {
		t.Fatal("swap failed")
	}
}

func TestMSBFSMatchesSerial(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"grid": gen.Grid2D(30, 30),
		"kron": gen.Kron(9, 8, 2),
		"path": gen.Path(500),
	}
	for name, g := range graphs {
		sources := []int32{0, int32(g.NumV / 3), int32(g.NumV / 2), int32(g.NumV - 1)}
		dists := make([][]int32, len(sources))
		for i := range dists {
			dists[i] = make([]int32, g.NumV)
		}
		st := MSBFS(parallel.Live(), g, sources, dists, nil, Options{})
		want := make([]int32, g.NumV)
		for i, src := range sources {
			Serial(g, src, want)
			for v := range want {
				if dists[i][v] != want[v] {
					t.Fatalf("%s src=%d: dist[%d] = %d, want %d", name, src, v, dists[i][v], want[v])
				}
			}
		}
		if st.ScannedEdges == 0 || st.Levels == 0 {
			t.Fatalf("%s: implausible stats %+v", name, st)
		}
	}
}

func TestMSBFS64Sources(t *testing.T) {
	g := gen.Kron(10, 8, 5)
	sources := make([]int32, 64)
	for i := range sources {
		sources[i] = int32((i * 131) % g.NumV)
	}
	dists := make([][]int32, 64)
	for i := range dists {
		dists[i] = make([]int32, g.NumV)
	}
	MSBFS(parallel.Live(), g, sources, dists, nil, Options{})
	want := make([]int32, g.NumV)
	for _, i := range []int{0, 31, 63} {
		Serial(g, sources[i], want)
		for v := range want {
			if dists[i][v] != want[v] {
				t.Fatalf("source %d wrong at %d", i, v)
			}
		}
	}
}

func TestMSBFSDuplicateSources(t *testing.T) {
	g := gen.Grid2D(10, 10)
	sources := []int32{5, 5}
	dists := [][]int32{make([]int32, g.NumV), make([]int32, g.NumV)}
	MSBFS(parallel.Live(), g, sources, dists, nil, Options{})
	for v := 0; v < g.NumV; v++ {
		if dists[0][v] != dists[1][v] {
			t.Fatalf("duplicate sources disagree at %d", v)
		}
	}
}

func TestMSBFSPanicsOnMisuse(t *testing.T) {
	g := gen.Path(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("65 sources accepted")
			}
		}()
		MSBFS(parallel.Live(), g, make([]int32, 65), make([][]int32, 65), nil, Options{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("short dists accepted")
			}
		}()
		MSBFS(parallel.Live(), g, []int32{0, 1}, [][]int32{make([]int32, 4)}, nil, Options{})
	}()
}

func TestMSBFSDisconnected(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}
	g, err := graph.FromEdges(4, edges, graph.BuildOptions{KeepAllComponents: true})
	if err != nil {
		t.Fatal(err)
	}
	dists := [][]int32{make([]int32, 4)}
	MSBFS(parallel.Live(), g, []int32{0}, dists, nil, Options{})
	if dists[0][2] != Unreached || dists[0][3] != Unreached {
		t.Fatalf("unreachable not marked: %v", dists[0])
	}
}
