package pivot

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/ortho"
	"repro/internal/parallel"
	"repro/internal/sssp"
)

// bud4 runs the phases on four workers, whatever GOMAXPROCS is.
var bud4 = parallel.FixedBudget(4)

func TestKCentersPhaseColumnsAreBFSDistances(t *testing.T) {
	g := gen.Grid2D(20, 20)
	s := 5
	b := linalg.NewDense(g.NumV, s)
	ps := PhaseBudget(bud4, g, b, 0, KCenters, bfs.Options{}, nil, nil, nil)
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
	ps := PhaseBudget(bud4, g, b, 3, KCenters, bfs.Options{}, nil, nil, nil)
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
	ps := PhaseBudget(bud4, g, b, 0, KCenters, bfs.Options{}, nil, nil, nil)
	if ps.Sources[1] != 99 {
		t.Fatalf("second pivot %d, want 99", ps.Sources[1])
	}
}

func TestRandomPhaseDistancesCorrect(t *testing.T) {
	g := gen.Kron(9, 8, 4)
	s := 6
	b := linalg.NewDense(g.NumV, s)
	ps := PhaseBudget(bud4, g, b, 7, Random, bfs.Options{}, nil, nil, nil)
	if len(ps.Sources) != s {
		t.Fatalf("%d sources", len(ps.Sources))
	}
	if ps.Sources[0] != 7 {
		t.Fatalf("start vertex %d, want 7", ps.Sources[0])
	}
	seen := map[int32]bool{}
	for _, src := range ps.Sources {
		if seen[src] {
			t.Fatalf("repeated pivot %d", src)
		}
		seen[src] = true
	}
	want := make([]int32, g.NumV)
	for i, src := range ps.Sources {
		bfs.Serial(g, src, want)
		col := b.Col(i)
		for j := range want {
			if col[j] != float64(want[j]) {
				t.Fatalf("random phase column %d wrong at %d", i, j)
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
	ps, err := StreamWeighted(context.Background(), bud4, g, s, 2, 0, fill(b), nil, nil)
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
	ps := PhaseBudget(bud4, g, b, 1, Random, bfs.Options{}, nil, nil, nil)
	if len(ps.Sources) != 4 {
		t.Fatalf("%d sources", len(ps.Sources))
	}
}

var _ = graph.CSR{} // keep the import for fixture helpers extended later

func TestRandomMSPhaseDistancesCorrect(t *testing.T) {
	g := gen.Kron(9, 8, 4)
	s := 70 // exercises two MSBFS batches
	b := linalg.NewDense(g.NumV, s)
	ps := PhaseBudget(bud4, g, b, 3, RandomMS, bfs.Options{}, nil, nil, nil)
	if len(ps.Sources) != s || ps.Sources[0] != 3 {
		t.Fatalf("sources %v", ps.Sources[:3])
	}
	want := make([]int32, g.NumV)
	for _, i := range []int{0, 33, 69} {
		bfs.Serial(g, ps.Sources[i], want)
		col := b.Col(i)
		for j := range want {
			if col[j] != float64(want[j]) {
				t.Fatalf("msbfs phase column %d wrong at %d: %g vs %d", i, j, col[j], want[j])
			}
		}
	}
	if RandomMS.String() != "random-msbfs" {
		t.Fatal("strategy name")
	}
	// The phase records one Stats entry per 64-source batch (70 pivots →
	// 2 batches) for the observability rollups.
	if len(ps.Traversal) != 2 {
		t.Fatalf("traversal stats entries = %d, want 2", len(ps.Traversal))
	}
	var steps int
	for _, st := range ps.Traversal {
		steps += st.TopDownSteps + st.BottomUpSteps
		if st.ScannedEdges <= 0 {
			t.Fatalf("batch recorded no scanned edges: %+v", st)
		}
	}
	if steps <= 0 {
		t.Fatal("no direction steps recorded")
	}
}

func TestRandomMSForceTopDownMatchesDefault(t *testing.T) {
	// bfs.Options flow through to the multi-source engine: ForceTopDown
	// must keep columns bitwise identical while running zero bottom-up
	// steps.
	g := gen.Kron(9, 8, 6)
	s := 40
	b1 := linalg.NewDense(g.NumV, s)
	b2 := linalg.NewDense(g.NumV, s)
	p1 := PhaseBudget(bud4, g, b1, 5, RandomMS, bfs.Options{}, nil, nil, nil)
	p2 := PhaseBudget(bud4, g, b2, 5, RandomMS, bfs.Options{ForceTopDown: true}, nil, nil, nil)
	for i := range b1.Data {
		if b1.Data[i] != b2.Data[i] {
			t.Fatal("ForceTopDown changed the distance matrix")
		}
	}
	for _, st := range p2.Traversal {
		if st.BottomUpSteps != 0 {
			t.Fatalf("ForceTopDown phase ran bottom-up: %+v", st)
		}
	}
	var bu int
	for _, st := range p1.Traversal {
		bu += st.BottomUpSteps
	}
	if bu == 0 {
		t.Fatal("default phase never switched bottom-up on kron")
	}
}

func TestRandomMSMatchesRandomPhase(t *testing.T) {
	// Same seed → same pivot set; distance columns must agree between the
	// serial-concurrent and bit-parallel engines.
	g := gen.Grid2D(20, 20)
	s := 10
	b1 := linalg.NewDense(g.NumV, s)
	b2 := linalg.NewDense(g.NumV, s)
	p1 := PhaseBudget(bud4, g, b1, 7, Random, bfs.Options{}, nil, nil, nil)
	p2 := PhaseBudget(bud4, g, b2, 7, RandomMS, bfs.Options{}, nil, nil, nil)
	for i := range p1.Sources {
		if p1.Sources[i] != p2.Sources[i] {
			t.Fatalf("pivot sets diverge at %d", i)
		}
	}
	for i := range b1.Data {
		if b1.Data[i] != b2.Data[i] {
			t.Fatal("distance matrices diverge")
		}
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
			ps := PhaseBudget(parallel.FixedBudget(w), g, b, 7, KCenters, bfs.Options{}, nil, nil, nil)
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
// bit for bit as PhaseBudget's materialized matrix fed to
// DOrthogonalizeBudget — under both methods, in pivot order, through one
// scratch every stream before it has dirtied. This is what lets ParHDE
// stream without ever storing the distance matrix.
func TestStreamMatchesMaterialized(t *testing.T) {
	const s, start = 70, 11 // 70 pivots: two MSBFS batches, two Random rounds or more
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
		{"random-ms", grid, RandomMS},
		{"weighted", weighted, KCenters},
	} {
		for _, method := range []ortho.Method{ortho.MGS, ortho.CGS} {
			n := c.g.NumV
			d := c.g.WeightedDegrees()
			b := linalg.NewDense(n, s)
			var want, got PhaseStats
			if c.g.Weighted() {
				want, _ = StreamWeighted(context.Background(), bud, c.g, s, start, 0, fill(b), nil, nil)
			} else {
				want = PhaseBudget(bud, c.g, b, start, c.strat, bfs.Options{}, nil, nil, nil)
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
				got, err = StreamWeighted(context.Background(), bud, c.g, s, start, 0, emit, nil, nil)
			} else {
				got, err = Stream(context.Background(), bud, c.g, s, start, c.strat, bfs.Options{}, sc, emit, nil, nil)
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
	for _, strat := range []Strategy{KCenters, Random, RandomMS} {
		var trav int
		onTrav := func(f func()) { trav++; f() }
		_, err := Stream(context.Background(), parallel.FixedBudget(1), g, 5, 0, strat, bfs.Options{}, nil,
			func(i int, _ []float64) error {
				if i == 1 {
					return stop
				}
				return nil
			}, onTrav, nil)
		// Random runs one BFS per round on one worker; RandomMS traverses
		// all five pivots in one batch.
		want := map[Strategy]int{KCenters: 2, Random: 2, RandomMS: 1}[strat]
		if !errors.Is(err, stop) || trav != want {
			t.Fatalf("%v: error %v after %d traversals, want %v after %d", strat, err, trav, stop, want)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		trav = 0
		if _, err := Stream(ctx, parallel.FixedBudget(1), g, 5, 0, strat, bfs.Options{}, nil,
			func(int, []float64) error { return nil }, onTrav, nil); !errors.Is(err, context.Canceled) || trav != 0 {
			t.Fatalf("%v: cancelled stream returned %v after %d traversals", strat, err, trav)
		}
	}
	if _, err := StreamWeighted(context.Background(), parallel.FixedBudget(1), gen.WithRandomWeights(g, 5, 1), 5, 0, 0,
		func(i int, _ []float64) error { return stop }, nil, nil); !errors.Is(err, stop) {
		t.Fatalf("weighted stream returned %v", err)
	}
}
