package pivot

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/ortho"
	"repro/internal/parallel"
	"repro/internal/phase"
	"repro/internal/sssp"
)

// bud4 runs the phases on four workers, whatever GOMAXPROCS is.
var bud4 = parallel.FixedBudget(4)

// phaseInto streams the BFS phase into b's columns, as PHDE does.
func phaseInto(bud parallel.Budget, g *graph.CSR, b *linalg.Dense, start int32, strat Strategy, opt bfs.Options) PhaseStats {
	ps, _ := Stream(context.Background(), bud, g, b.Cols, start, strat, opt, nil, Fill(b), new(phase.Clock))
	return ps
}

func TestKCentersPhaseColumnsAreBFSDistances(t *testing.T) {
	g := gen.Grid2D(20, 20)
	s := 5
	b := linalg.NewDense(g.NumV, s)
	ps := phaseInto(bud4, g, b, 0, KCenters, bfs.Options{})
	if len(ps.Sources) != s {
		t.Fatalf("%d sources, want %d", len(ps.Sources), s)
	}
	want := make([]int32, g.NumV)
	for i, src := range ps.Sources {
		bfs.Serial(g, src, want)
		col := b.Col(i)
		for j := range want {
			if col[j] != float64(want[j]) {
				t.Fatalf("column %d (src %d) wrong at %d: %g vs %d", i, src, j, col[j], want[j])
			}
		}
	}
}

func TestKCentersFarthestFirstProperty(t *testing.T) {
	// Each subsequent source must maximize the min-distance to all
	// previous sources (Gonzalez's invariant).
	g := gen.PlateWithHoles(25, 25)
	s := 4
	b := linalg.NewDense(g.NumV, s)
	ps := phaseInto(bud4, g, b, 3, KCenters, bfs.Options{})
	for i := 1; i < s; i++ {
		chosen := ps.Sources[i]
		var chosenMin float64 = math.Inf(1)
		best := 0.0
		for v := 0; v < g.NumV; v++ {
			dmin := math.Inf(1)
			for j := 0; j < i; j++ {
				if d := b.At(v, j); d < dmin {
					dmin = d
				}
			}
			if dmin > best {
				best = dmin
			}
			if int32(v) == chosen {
				chosenMin = dmin
			}
		}
		if chosenMin != best {
			t.Fatalf("source %d has min-dist %g, farthest available %g", i, chosenMin, best)
		}
	}
}

func TestKCentersSourcesOnPath(t *testing.T) {
	// On a path started at vertex 0, the second pivot must be the far end.
	g := gen.Path(100)
	b := linalg.NewDense(g.NumV, 2)
	ps := phaseInto(bud4, g, b, 0, KCenters, bfs.Options{})
	if ps.Sources[1] != 99 {
		t.Fatalf("second pivot %d, want 99", ps.Sources[1])
	}
}

// TestRandomPhaseDistancesCorrect: every random-phase column is the
// bfs.Serial column of its pivot, under worker budgets 1 to 4, on a kron
// graph (s = 70 > 64), a road network and a 3-D mesh, and the pivots are
// start followed by distinct vertices.
func TestRandomPhaseDistancesCorrect(t *testing.T) {
	for _, c := range []struct {
		name  string
		g     *graph.CSR
		s     int
		start int32
	}{
		{"kron", gen.Kron(9, 8, 4), 70, 7},
		{"road", gen.Road(40, 40, 3), 12, 5},
		{"mesh3d", gen.Mesh3D(8, 7, 6), 20, 9},
	} {
		g := c.g
		want := make([]int32, g.NumV)
		for w := 1; w <= 4; w++ {
			b := linalg.NewDense(g.NumV, c.s)
			ps := phaseInto(parallel.FixedBudget(w), g, b, c.start, Random, bfs.Options{})
			if len(ps.Sources) != c.s || ps.Sources[0] != c.start {
				t.Fatalf("%s/%dw: %d sources starting %d, want %d starting %d", c.name, w, len(ps.Sources), ps.Sources[0], c.s, c.start)
			}
			seen := map[int32]bool{}
			for i, src := range ps.Sources {
				if seen[src] {
					t.Fatalf("%s/%dw: repeated pivot %d", c.name, w, src)
				}
				seen[src] = true
				bfs.Serial(g, src, want)
				col := b.Col(i)
				for j := range want {
					if col[j] != float64(want[j]) {
						t.Fatalf("%s/%dw: column %d (src %d) wrong at %d: %g vs %d", c.name, w, i, src, j, col[j], want[j])
					}
				}
			}
		}
	}
}

func TestPhaseTimerHooksInvoked(t *testing.T) {
	g := gen.Grid2D(10, 10)
	b := linalg.NewDense(g.NumV, 3)
	var trav, other int
	PhaseBudget(bud4, g, b, 0, KCenters, bfs.Options{}, nil,
		func(f func()) { trav++; f() },
		func(f func()) { other++; f() })
	if trav != 3 || other != 3 {
		t.Fatalf("hooks: traversal %d, other %d, want 3 each", trav, other)
	}
}

func TestStreamWeightedMatchesDijkstra(t *testing.T) {
	g := gen.WithRandomWeights(gen.Grid2D(15, 15), 9, 5)
	s := 4
	b := linalg.NewDense(g.NumV, s)
	ps, err := StreamWeighted(context.Background(), bud4, g, s, 2, 0, Fill(b), new(phase.Clock))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, g.NumV)
	for i, src := range ps.Sources {
		sssp.Dijkstra(g, src, want)
		col := b.Col(i)
		for j := range want {
			if math.Abs(col[j]-want[j]) > 1e-9 {
				t.Fatalf("weighted column %d wrong at %d: %g vs %g", i, j, col[j], want[j])
			}
		}
	}
	// Farthest-first invariant holds for real distances too.
	second := ps.Sources[1]
	dmin0 := b.Col(0)
	best := 0.0
	for _, d := range dmin0 {
		if d > best {
			best = d
		}
	}
	if dmin0[second] != best {
		t.Fatalf("weighted second pivot at distance %g, farthest %g", dmin0[second], best)
	}
}

func TestStrategyString(t *testing.T) {
	if KCenters.String() != "k-centers" || Random.String() != "random" {
		t.Fatal("strategy names wrong")
	}
}

func TestRandomPhaseMoreSourcesThanVertices(t *testing.T) {
	g := gen.Complete(5)
	b := linalg.NewDense(g.NumV, 4)
	ps := phaseInto(bud4, g, b, 1, Random, bfs.Options{})
	if len(ps.Sources) != 4 {
		t.Fatalf("%d sources", len(ps.Sources))
	}
}

// TestKCentersPhaseBudgetInvariance: the k-centers phase — pivots,
// distance matrix and every traversal's Stats — is the same under worker
// budgets 1, 2 and 4, on a road network (thousands of levels below the
// BFS runner's inline cutoff) and on a kron graph (both directions, both
// frontier conversions). CI runs it under -race.
func TestKCentersPhaseBudgetInvariance(t *testing.T) {
	for name, g := range map[string]*graph.CSR{"road": gen.Road(64, 64, 3), "kron": gen.Kron(12, 16, 4)} {
		var refB *linalg.Dense
		var ref PhaseStats
		for _, w := range []int{1, 2, 4} {
			b := linalg.NewDense(g.NumV, 6)
			ps := phaseInto(parallel.FixedBudget(w), g, b, 7, KCenters, bfs.Options{})
			if w == 1 {
				refB, ref = b, ps
				continue
			}
			if !reflect.DeepEqual(ps, ref) {
				t.Fatalf("%s: phase stats at %d workers %+v, at 1 worker %+v", name, w, ps, ref)
			}
			if !reflect.DeepEqual(b.Data, refB.Data) {
				t.Fatalf("%s: distance matrix at %d workers differs from 1 worker", name, w)
			}
		}
	}
}

// TestStreamMatchesMaterialized: for every strategy, the weighted
// Δ-stepping stream included, the columns Stream hands its consumer, fed
// one at a time to an ortho.Incremental, give the same orthogonalization
// bit for bit as the materialized matrix (Fill) fed to
// DOrthogonalizeBudget — under both methods, in pivot order, through one
// scratch every stream before it has dirtied. This is what lets ParHDE
// stream without ever storing the distance matrix.
func TestStreamMatchesMaterialized(t *testing.T) {
	const s, start = 70, 11 // 70 pivots: 35 Random rounds on two workers
	bud := parallel.FixedBudget(2)
	grid := gen.Grid2D(40, 50) // dependent corner columns: the drop path runs
	weighted := gen.WithRandomWeights(gen.Road(40, 40, 3), 9, 5)
	sc := &Scratch{}
	for _, c := range []struct {
		name  string
		g     *graph.CSR
		strat Strategy
	}{
		{"kcenters", grid, KCenters},
		{"random", grid, Random},
		{"weighted", weighted, KCenters},
	} {
		for _, method := range []ortho.Method{ortho.MGS, ortho.CGS} {
			n := c.g.NumV
			d := c.g.WeightedDegrees()
			b := linalg.NewDense(n, s)
			var want, got PhaseStats
			if c.g.Weighted() {
				want, _ = StreamWeighted(context.Background(), bud, c.g, s, start, 0, Fill(b), new(phase.Clock))
			} else {
				want = phaseInto(bud, c.g, b, start, c.strat, bfs.Options{})
			}
			ref := ortho.DOrthogonalizeBudget(bud, b, d, method, nil)

			inc := ortho.NewIncremental(bud, n, s, d, method, nil)
			next := 0
			emit := func(i int, col []float64) error {
				if i != next {
					t.Fatalf("%s: column %d emitted, want %d", c.name, i, next)
				}
				next++
				inc.Add(col)
				return nil
			}
			var err error
			if c.g.Weighted() {
				got, err = StreamWeighted(context.Background(), bud, c.g, s, start, 0, emit, new(phase.Clock))
			} else {
				got, err = Stream(context.Background(), bud, c.g, s, start, c.strat, bfs.Options{}, sc, emit, new(phase.Clock))
			}
			if err != nil || next != s {
				t.Fatalf("%s/%v: %d columns emitted, error %v", c.name, method, next, err)
			}
			if c.g.Weighted() {
				// Δ-stepping's relaxation count depends on scheduling.
				got.ScannedEdges, want.ScannedEdges = 0, 0
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%v: stream stats %+v, materialized %+v", c.name, method, got, want)
			}
			res := inc.Result()
			if !reflect.DeepEqual(res.Kept, ref.Kept) || res.Dropped != ref.Dropped {
				t.Fatalf("%s/%v: kept %v dropped %d, materialized kept %v dropped %d", c.name, method, res.Kept, res.Dropped, ref.Kept, ref.Dropped)
			}
			if c.name == "kcenters" && res.Dropped == 0 {
				t.Fatal("no grid corner column dropped")
			}
			for k := range ref.S.Data {
				if res.S.Data[k] != ref.S.Data[k] {
					t.Fatalf("%s/%v: S.Data[%d] = %v, materialized %v", c.name, method, k, res.S.Data[k], ref.S.Data[k])
				}
			}
			for j := range ref.DNorms {
				if res.DNorms[j] != ref.DNorms[j] {
					t.Fatalf("%s/%v: DNorms[%d] = %v, materialized %v", c.name, method, j, res.DNorms[j], ref.DNorms[j])
				}
			}
		}
	}
}

// TestStreamStopsOnError: an error from the consumer or from ctx ends the
// phase before its next traversal and is returned as is.
func TestStreamStopsOnError(t *testing.T) {
	g := gen.Grid2D(20, 20)
	stop := errors.New("stop")
	for _, strat := range []Strategy{KCenters, Random} {
		var trav int
		count := func(p phase.ID, f func()) {
			if p == phase.BFSTraversal {
				trav++
			}
			f()
		}
		_, err := stream(context.Background(), parallel.FixedBudget(1), g, 5, 0, strat, bfs.Options{}, nil,
			func(i int, _ []float64) error {
				if i == 1 {
					return stop
				}
				return nil
			}, count)
		// Random runs one BFS per round on one worker.
		if !errors.Is(err, stop) || trav != 2 {
			t.Fatalf("%v: error %v after %d traversals, want %v after 2", strat, err, trav, stop)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		trav = 0
		if _, err := stream(ctx, parallel.FixedBudget(1), g, 5, 0, strat, bfs.Options{}, nil,
			func(int, []float64) error { return nil }, count); !errors.Is(err, context.Canceled) || trav != 0 {
			t.Fatalf("%v: cancelled stream returned %v after %d traversals", strat, err, trav)
		}
	}
	if _, err := StreamWeighted(context.Background(), parallel.FixedBudget(1), gen.WithRandomWeights(g, 5, 1), 5, 0, 0,
		func(i int, _ []float64) error { return stop }, new(phase.Clock)); !errors.Is(err, stop) {
		t.Fatalf("weighted stream returned %v", err)
	}
}

// TestRandomPhaseCountsScannedEdges: the Random phase's ScannedEdges sums
// what its traversals scanned, the degrees of the vertices each one
// reached, and not s·len(Adj) whatever the graph: on a graph of two
// components a traversal scans only its own component.
func TestRandomPhaseCountsScannedEdges(t *testing.T) {
	const a, b = 30, 70 // a path on vertices [0, a), a cycle on [a, a+b)
	var edges []graph.Edge
	for i := 0; i+1 < a; i++ {
		edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1)})
	}
	for i := 0; i < b; i++ {
		edges = append(edges, graph.Edge{U: int32(a + i), V: int32(a + (i+1)%b)})
	}
	g, err := graph.FromEdges(a+b, edges, graph.BuildOptions{KeepAllComponents: true})
	if err != nil {
		t.Fatal(err)
	}
	connected := gen.Grid2D(12, 9)
	dist := make([]int32, max(g.NumV, connected.NumV))
	for _, w := range []int{1, 2, 3} {
		for _, c := range []struct {
			g *graph.CSR
			s int
		}{{g, 9}, {connected, 7}} {
			b := linalg.NewDense(c.g.NumV, c.s)
			ps := phaseInto(parallel.FixedBudget(w), c.g, b, 5, Random, bfs.Options{})
			var want int64
			for _, src := range ps.Sources {
				bfs.Serial(c.g, src, dist[:c.g.NumV])
				for v, d := range dist[:c.g.NumV] {
					if d != bfs.Unreached {
						want += int64(c.g.Degree(int32(v)))
					}
				}
			}
			if ps.ScannedEdges != want {
				t.Fatalf("n=%d s=%d workers=%d: ScannedEdges = %d, the reached vertices' degrees sum to %d (s·len(Adj) = %d)",
					c.g.NumV, c.s, w, ps.ScannedEdges, want, int64(c.s)*int64(len(c.g.Adj)))
			}
		}
	}
}

// TestStreamedColumnsAreLevelStructures: every column Stream emits, under
// both strategies and budgets 1 and 2, is a BFS level structure of its
// pivot on a connected graph — the pivot is the one vertex at level 0, no
// vertex is unreached, and the levels of an edge's ends differ by at most
// one — checked against the edges themselves, not against another BFS.
func TestStreamedColumnsAreLevelStructures(t *testing.T) {
	const s = 10
	for name, g := range map[string]*graph.CSR{
		"road":   gen.Road(40, 40, 3),
		"kron12": graph.LargestComponent(gen.Kron(12, 8, 4)),
		"mesh3d": gen.Mesh3D(9, 8, 7),
	} {
		for _, strat := range []Strategy{KCenters, Random} {
			for _, w := range []int{1, 2} {
				tag := fmt.Sprintf("%s/%v/%dw", name, strat, w)
				var roots []int32 // each column's level-0 vertex
				emit := func(i int, col []float64) error {
					root := int32(-1)
					for v, d := range col {
						switch {
						case d == float64(bfs.Unreached):
							t.Fatalf("%s: column %d leaves vertex %d unreached", tag, i, v)
						case d == 0 && root >= 0:
							t.Fatalf("%s: column %d has vertices %d and %d at level 0", tag, i, root, v)
						case d == 0:
							root = int32(v)
						}
						for _, u := range g.Neighbors(int32(v)) {
							if math.Abs(d-col[u]) > 1 {
								t.Fatalf("%s: column %d: edge %d–%d spans levels %v and %v", tag, i, v, u, d, col[u])
							}
						}
					}
					roots = append(roots, root)
					return nil
				}
				ps, err := Stream(context.Background(), parallel.FixedBudget(w), g, s, 3, strat, bfs.Options{}, nil, emit, new(phase.Clock))
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if !reflect.DeepEqual(roots, ps.Sources) {
					t.Fatalf("%s: level-0 vertices %v, pivots %v", tag, roots, ps.Sources)
				}
			}
		}
	}
}
