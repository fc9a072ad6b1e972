package bfs

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// TestDirectionRuleTable walks the SC'12 state diagram edge by edge, plus
// the sweep-cost term. Every row differs from a neighbouring row in one
// term only, so dropping any one of the five terms of goBottomUp flips at
// least one of them. n = 1800, α = 15, β = 18: n/β = 100.
func TestDirectionRuleTable(t *testing.T) {
	const n, alpha, beta = 1800, 15, 18
	cases := []struct {
		name             string
		bottomUp         bool
		nf, prev, mf, mu int64
		want             bool
	}{
		// top-down → bottom-up: all three terms must hold.
		{"enter: heavy, growing, above the sweep cost", false, 50, 40, 200, 1500, true},
		{"stay top-down: frontier edges ≤ m_u/α", false, 50, 40, 200, 3000, false},
		{"stay top-down: heavy but shrinking", false, 50, 60, 200, 1500, false},
		{"stay top-down: heavy but equal n_f is not growing", false, 50, 50, 200, 1500, false},
		{"stay top-down: growing but m_f ≤ n/β", false, 50, 40, 100, 150, false},
		{"stay top-down: m_u exhausted, tiny frontier (the road-graph tail)", false, 3, 2, 8, 0, false},
		// bottom-up → top-down: both terms must hold.
		{"leave: small and shrinking", true, 50, 60, 200, 1500, false},
		{"stay bottom-up: shrinking but n_f ≥ n/β", true, 100, 120, 200, 1500, true},
		{"stay bottom-up: small but growing", true, 50, 40, 200, 1500, true},
		{"stay bottom-up: small but equal n_f is not shrinking", true, 50, 50, 200, 1500, true},
		// leaving ignores the entry terms and vice versa.
		{"leave: even with heavy frontier edges", true, 50, 60, 5000, 10, false},
		{"enter: even with n_f < n/β", false, 50, 40, 200, 10, true},
	}
	for _, c := range cases {
		if got := goBottomUp(c.bottomUp, c.nf, c.prev, c.mf, c.mu, n, alpha, beta); got != c.want {
			t.Errorf("%s: goBottomUp(%v, nf=%d prev=%d mf=%d mu=%d) = %v, want %v",
				c.name, c.bottomUp, c.nf, c.prev, c.mf, c.mu, got, c.want)
		}
	}
}

// testSources returns ~strided evenly spaced vertices plus the k-centers
// pivots the layout's BFS phase would pick from vertex 0 (each next source
// the vertex farthest from all earlier ones, lowest id on ties).
func testSources(g *graph.CSR, strided, pivots int) []int32 {
	var srcs []int32
	for v := 0; v < g.NumV; v += 1 + g.NumV/strided {
		srcs = append(srcs, int32(v))
	}
	dist := make([]int32, g.NumV)
	dmin := make([]int32, g.NumV)
	for i := range dmin {
		dmin[i] = 1 << 30
	}
	src := int32(0)
	for i := 0; i < pivots; i++ {
		srcs = append(srcs, src)
		Serial(g, src, dist)
		for v, d := range dist {
			dmin[v] = min(dmin[v], d)
		}
		for v, d := range dmin {
			if d > dmin[src] {
				src = int32(v)
			}
		}
	}
	return srcs
}

// TestNoBottomUpOnHighDiameter: on road networks, grids, paths and cycles
// the frontier never carries n/β adjacency entries, so a bottom-up step
// (an O(n) sweep, plus two frontier conversions) can never pay; every
// search must run purely top-down and scan each adjacency entry exactly
// once. The pre-SC'12 two-term rule fails this on every road and grid
// case (its last ~30 levels ping-pong between the directions).
// Grid2D(50²) is deliberately absent: a 2 500-vertex grid legitimately
// takes two bottom-up steps.
func TestNoBottomUpOnHighDiameter(t *testing.T) {
	cases := map[string]*graph.CSR{
		"grid100": gen.Grid2D(100, 100),
		"grid300": gen.Grid2D(300, 300),
		"path":    gen.Path(5000),
		"cycle":   gen.Cycle(5000),
	}
	for _, side := range []int{64, 150, 180} {
		for seed := uint64(1); seed <= 3; seed++ {
			cases[fmt.Sprintf("road%d/seed%d", side, seed)] = gen.Road(side, side, seed)
		}
	}
	strided := 300
	if testing.Short() {
		strided = 30
	}
	for name, g := range cases {
		runner := NewRunner(g, Options{}, nil, parallel.FixedBudget(1))
		dist := make([]int32, g.NumV)
		for _, src := range testSources(g, strided, 10) {
			st := runner.Distances(src, dist)
			if st.BottomUpSteps != 0 || st.Switches != 0 || st.ScannedEdges != int64(len(g.Adj)) {
				t.Errorf("%s src=%d: %d bottom-up steps, %d switches, scanned %d of %d adjacency entries",
					name, src, st.BottomUpSteps, st.Switches, st.ScannedEdges, len(g.Adj))
				break
			}
		}
	}
}

// TestDirectionWorkReduction is the other side of the rule: on skewed
// low-diameter graphs it must still go bottom-up and scan at most a third
// of what top-down scans (Table 1's γ; measured 0.05–0.16), and on every
// family a traversal changes direction at most twice — in once, out once.
func TestDirectionWorkReduction(t *testing.T) {
	type tc struct {
		name   string
		g      *graph.CSR
		skewed bool
	}
	cases := []tc{
		{"chunglu", gen.ChungLu(20000, 16, 2.2, 1), true},
		{"road", gen.Road(100, 100, 1), false},
		{"grid50", gen.Grid2D(50, 50), false},
		{"grid100", gen.Grid2D(100, 100), false},
		{"mesh3d", gen.Mesh3D(20, 20, 20), false},
		{"path", gen.Path(5000), false},
		{"cycle", gen.Cycle(5000), false},
		{"star", gen.Star(5000), false},
	}
	for scale := 11; scale <= 14; scale++ {
		cases = append(cases, tc{fmt.Sprintf("kron%d", scale), gen.Kron(scale, 16, uint64(scale)), true})
	}
	for _, c := range cases {
		g := c.g
		def := NewRunner(g, Options{}, nil, parallel.FixedBudget(1))
		td := NewRunner(g, Options{ForceTopDown: true}, nil, parallel.FixedBudget(1))
		dist := make([]int32, g.NumV)
		var sum, sumTD Stats
		for _, src := range testSources(g, 20, 10) {
			st := def.Distances(src, dist)
			if st.Switches > 2 {
				t.Errorf("%s src=%d: %d direction changes in one traversal: %+v", c.name, src, st.Switches, st)
			}
			sum.Add(st)
			sumTD.Add(td.Distances(src, dist))
		}
		if sumTD.BottomUpSteps != 0 || sumTD.Switches != 0 {
			t.Errorf("%s: ForceTopDown ran bottom-up: %+v", c.name, sumTD)
		}
		if c.skewed && (sum.BottomUpSteps == 0 || 3*sum.ScannedEdges > sumTD.ScannedEdges) {
			t.Errorf("%s: %d bottom-up steps, scanned %d vs top-down %d (want ≤ 1/3)",
				c.name, sum.BottomUpSteps, sum.ScannedEdges, sumTD.ScannedEdges)
		}
	}
}

// completeBipartite returns K_{a,b}: from a left vertex the frontier is
// 1 → b → a−1, so its size crosses the inline cutoff in both directions.
func completeBipartite(a, b int) *graph.CSR {
	edges := make([]graph.Edge, 0, a*b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			edges = append(edges, graph.Edge{U: int32(i), V: int32(a + j)})
		}
	}
	g, err := graph.FromEdges(a+b, edges, graph.BuildOptions{})
	if err != nil {
		panic(err)
	}
	return g
}

// assertBudgetInvariant fails unless Runner.Distances from src under every
// worker budget in workers yields the distances of bfs.Serial and the
// Stats of the first budget.
func assertBudgetInvariant(t *testing.T, label string, g *graph.CSR, opt Options, src int32, workers ...int) {
	t.Helper()
	want := make([]int32, g.NumV)
	got := make([]int32, g.NumV)
	Serial(g, src, want)
	var ref Stats
	for i, w := range workers {
		st := NewRunner(g, opt, nil, parallel.FixedBudget(w)).Distances(src, got)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("%s %+v src=%d workers=%d: dist[%d] = %d, want %d", label, opt, src, w, v, got[v], want[v])
			}
		}
		if i == 0 {
			ref = st
		} else if st != ref {
			t.Fatalf("%s %+v src=%d: stats at %d workers %+v, at %d workers %+v", label, opt, src, w, st, workers[0], ref)
		}
	}
}

// TestStatsAndDistancesBudgetInvariant: the direction rule, the inline
// top-down cutoff and both frontier conversions are functions of exact
// integer frontier counts, so budgets 1/2/4 must produce the distances of
// bfs.Serial and identical Stats — on fixtures whose frontier sits one
// below, at and one above the 2·MinGrain cutoff, and on graphs that take
// both directions. CI runs it under GOMAXPROCS=4 -race -count=10.
func TestStatsAndDistancesBudgetInvariant(t *testing.T) {
	cases := map[string]*graph.CSR{
		"kron":   gen.Kron(12, 16, 3),
		"road":   gen.Road(64, 64, 2),
		"grid50": gen.Grid2D(50, 50),
	}
	for _, f := range []int{2*parallel.MinGrain - 1, 2 * parallel.MinGrain, 2*parallel.MinGrain + 1} {
		cases[fmt.Sprintf("star%d", f)] = gen.Star(f + 1)
		cases[fmt.Sprintf("bipartite%d", f)] = completeBipartite(40, f)
	}
	for name, g := range cases {
		for _, opt := range []Options{{}, {ForceTopDown: true}} {
			for _, src := range []int32{0, 1, int32(g.NumV / 2), int32(g.NumV - 1)} {
				assertBudgetInvariant(t, name, g, opt, src, 1, 2, 4)
			}
		}
	}
}

// FuzzDistancesBudgetEquivalence is FuzzMSBFSDirOptEquivalence's
// single-source sibling: on random (possibly disconnected) graphs
// Runner.Distances under budgets 1 and 4 equals bfs.Serial, with
// identical Stats.
func FuzzDistancesBudgetEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(50), uint8(1))
	f.Add(int64(2), uint16(3000), uint8(2))
	f.Add(int64(3), uint16(6000), uint8(30))
	f.Add(int64(4), uint16(2500), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, size uint16, density uint8) {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(size)%8000
		edges := make([]graph.Edge, n/2+n*int(density)/8)
		for i := range edges {
			edges[i] = graph.Edge{U: int32(r.Intn(n)), V: int32(r.Intn(n))}
		}
		g, err := graph.FromEdges(n, edges, graph.BuildOptions{KeepAllComponents: true})
		if err != nil || g.NumV < 2 {
			t.Skip()
		}
		assertBudgetInvariant(t, "fuzz", g, Options{}, int32(r.Intn(g.NumV)), 1, 4)
	})
}
