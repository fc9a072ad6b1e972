package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// packInto stores s's columns in pc after one filler column, the way the
// DOrtho store holds S after its constant column (a = 1 stores the bits).
func packInto(pc *PackedCols, s *Dense, rng *rand.Rand) {
	bud := parallel.FixedBudget(1)
	pc.Ensure(s.Rows, s.Cols+1)
	pc.AppendScaledDDotBudget(bud, randVec(s.Rows, rng), nil, 1, nil)
	for j := 0; j < s.Cols; j++ {
		pc.AppendScaledDDotBudget(bud, s.Col(j), nil, 1, nil)
	}
}

// twoPass is the reference TripleProd: P = L·S into an n×s matrix, then
// Z = SᵀP, each by its own packed kernel on one worker.
func twoPass(g *graph.CSR, deg []float64, s *Dense) *Dense {
	bud := parallel.FixedBudget(1)
	p := LapMulDenseTiledPackedBudget(bud, g, deg, s, nil, nil, nil)
	return AtBPackedBudget(bud, s, p, nil, nil, nil)
}

// assertTripleProd packs s into pc after one filler column over a dirty
// buffer, runs TripleProdBudget over it and checks Z's upper triangle
// against want's and the returned srm against S row-major, bitwise, that
// Z is exactly symmetric, and that the store is left empty. It returns
// srm.
func assertTripleProd(t *testing.T, tag string, bud parallel.Budget, g *graph.CSR, deg []float64, s, want *Dense, pc *PackedCols, partials []float64, arena *PackArena) []float64 {
	t.Helper()
	n, cols := s.Rows, s.Cols
	dirty(pc.buf)
	packInto(pc, s, rand.New(rand.NewSource(int64(n))))
	got, srm, share := TripleProdBudget(bud, g, deg, pc, 1, nil, partials, arena)
	assertUpperSymmetric(t, tag, got, want)
	if !(share >= 0 && share <= 1) {
		t.Fatalf("%s: L·S share %v outside [0, 1]", tag, share)
	}
	if pc.Len() != 0 {
		t.Fatalf("%s: the store holds %d columns after TripleProd, want 0", tag, pc.Len())
	}
	if len(srm) != n*cols {
		t.Fatalf("%s: len(srm) = %d, want %d", tag, len(srm), n*cols)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < cols; j++ {
			if srm[i*cols+j] != s.At(i, j) {
				t.Fatalf("%s: srm[%d][%d] = %v, S has %v", tag, i, j, srm[i*cols+j], s.At(i, j))
			}
		}
	}
	return srm
}

// assertUpperSymmetric checks that got's upper triangle (diagonal
// included) equals want's bit for bit and that got is exactly symmetric:
// TripleProd sweeps only the upper triangle of Z = SᵀLS and mirrors it.
// want, the two-pass AᵀB product, is symmetric only up to rounding.
func assertUpperSymmetric(t *testing.T, tag string, got, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", tag, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for j := 0; j < got.Cols; j++ {
		for i := 0; i <= j; i++ {
			if got.At(i, j) != want.At(i, j) {
				t.Fatalf("%s: Z[%d][%d] = %v, L·S then AᵀB has %v", tag, i, j, got.At(i, j), want.At(i, j))
			}
			if got.At(j, i) != got.At(i, j) {
				t.Fatalf("%s: Z[%d][%d] = %v but Z[%d][%d] = %v", tag, j, i, got.At(j, i), i, j, got.At(i, j))
			}
		}
	}
}

// dirty fills buf with NaN, so a kernel that reads a reused buffer before
// writing it shows up in the result.
func dirty(buf []float64) []float64 {
	for i := range buf {
		buf[i] = math.NaN()
	}
	return buf
}

// TestTripleProdMatchesTwoPass: the one-walk TripleProd kernel reproduces
// the upper triangle of LapMulDenseTiledPackedBudget followed by
// AtBPackedBudget bit for bit and mirrors it onto an exactly symmetric Z,
// and the projection read from the srm it returns reproduces
// MulSmallBudget, on the L·S graphs at every column count and under every
// budget — with one store, arena and partials buffer reused dirty across
// all of them, and with private storage.
func TestTripleProdMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	maxCols := lsColCounts[len(lsColCounts)-1]
	maxN := 2*parallel.TileRows + 13
	arena := &PackArena{}
	arena.Ensure(4, 2*PackRows*maxCols)
	dirty(arena.buf)
	partials := dirty(make([]float64, parallel.ReduceBlocks(maxN)*maxCols*maxCols))
	var pc PackedCols
	withProcs(4, func() {
		for name, g := range lsGraphs() {
			deg := g.WeightedDegrees()
			n := g.NumV
			for _, cols := range lsColCounts {
				s, y := NewDense(n, cols), NewDense(cols, 3) // an axis pair and a lone axis
				fillRand(s, rng)
				fillRand(y, rng)
				want := twoPass(g, deg, s)
				wantXY := MulSmallBudget(parallel.FixedBudget(1), s, y, nil)
				for _, bud := range testBudgets() {
					tag := fmt.Sprintf("%s cols=%d workers=%d", name, cols, bud.Workers())
					srm := assertTripleProd(t, tag+" pooled", bud, g, deg, s, want, &pc, partials, arena)
					gotXY := MulSmallRowMajorBudget(bud, srm, y, NewDense(n, 3))
					assertDenseEqual(t, tag+" projection", gotXY, wantXY)
					assertTripleProd(t, tag+" private", bud, g, deg, s, want, &PackedCols{}, nil, nil)
				}
			}
		}
	})
}

// FuzzTripleProdEquivalence fuzzes the graph (random edges over n
// vertices, optionally weighted), the column count (1–70: one to three
// 28-column L·S walks) and the values of S,
// and holds the one-walk kernel to the two-pass product's upper triangle
// bitwise, and to an exactly symmetric Z, under budgets 1, 3 and live with a shared dirty arena and partials buffer —
// the randomized arm of TestTripleProdMatchesTwoPass.
func FuzzTripleProdEquivalence(f *testing.F) {
	f.Add(97, 3, int64(1), false)
	f.Add(PackRows+3, 9, int64(2), true)
	f.Add(parallel.TileRows+1, 17, int64(3), false)
	f.Add(2*parallel.TileRows+13, 20, int64(4), true)
	// Odd widths: one SSE2 walk whose last column pair overlaps, two walks
	// (29 = 15 + 14), three walks (57 = 19 · 3).
	f.Add(PackRows+1, 21, int64(5), false)
	f.Add(parallel.TileRows+3, 29, int64(6), true)
	f.Add(2*PackRows+1, 57, int64(7), true)
	arena := &PackArena{}
	var partials []float64
	var pc PackedCols
	f.Fuzz(func(t *testing.T, n, cols int, seed int64, weighted bool) {
		if n < 0 {
			n = -n
		}
		if cols < 0 {
			cols = -cols
		}
		n = 2 + n%(2*parallel.TileRows+512)
		cols = cols%70 + 1
		rng := rand.New(rand.NewSource(seed))
		edges := make([]graph.Edge, n+rng.Intn(4*n))
		for i := range edges {
			edges[i] = graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
		}
		g, err := graph.FromEdges(n, edges, graph.BuildOptions{KeepAllComponents: true})
		if err != nil {
			t.Skip()
		}
		if weighted {
			g = gen.WithRandomWeights(g, 9, uint64(seed))
		}
		deg := g.WeightedDegrees()
		s := NewDense(g.NumV, cols)
		fillRand(s, rng)
		want := twoPass(g, deg, s)
		if need := parallel.ReduceBlocks(g.NumV) * cols * cols; cap(partials) < need {
			partials = make([]float64, need)
		}
		dirty(partials[:cap(partials)])
		for _, bud := range []parallel.Budget{parallel.FixedBudget(1), parallel.FixedBudget(3), parallel.Live()} {
			tag := fmt.Sprintf("n=%d cols=%d weighted=%v workers=%d", g.NumV, cols, weighted, bud.Workers())
			assertTripleProd(t, tag, bud, g, deg, s, want, &pc, partials, arena)
		}
	})
}
