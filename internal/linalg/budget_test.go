package linalg

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/parallel"
)

// withProcs runs f under the given GOMAXPROCS so multi-goroutine fan-out
// paths execute even on a single-core host.
func withProcs(p int, f func()) {
	prev := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// budgets under test: serial, two fixed parallel budgets, and the live
// budget (which follows the GOMAXPROCS(4) pin).
func testBudgets() []parallel.Budget {
	return []parallel.Budget{
		parallel.FixedBudget(1),
		parallel.FixedBudget(2),
		parallel.FixedBudget(4),
		parallel.Live(),
	}
}

// TestDotBudgetInvariance: the dot reductions are bitwise identical for
// every worker budget, one worker included.
func TestDotBudgetInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	withProcs(4, func() {
		for _, n := range []int{1, 100, parallel.TileRows, parallel.TileRows + 1, 3*parallel.TileRows + 17, 20000} {
			x, y, d := randVec(n, rng), randVec(n, rng), randVec(n, rng)
			partials := make([]float64, parallel.ReduceBlocks(n))
			ref := DotBudget(parallel.FixedBudget(1), x, y, nil)
			for _, bud := range testBudgets() {
				if got := DotBudget(bud, x, y, partials); got != ref {
					t.Fatalf("n=%d workers=%d: Dot %v != %v", n, bud.Workers(), got, ref)
				}
			}
			if got := Dot(x, y); got != ref {
				t.Fatalf("n=%d: live Dot %v != %v", n, got, ref)
			}
			// DDot runs on the live budget only: sweep it through GOMAXPROCS.
			var refD float64
			withProcs(1, func() { refD = DDot(x, d, y) })
			for _, p := range []int{2, 4} {
				withProcs(p, func() {
					if got := DDot(x, d, y); got != refD {
						t.Fatalf("n=%d procs=%d: DDot %v != %v", n, p, got, refD)
					}
				})
			}
		}
	})
}

// TestDDotPanelBudgetInvariance: the fused panel multi-dot matches the
// column-at-a-time reference bitwise under every budget, for panel widths
// around PanelCols.
func TestDDotPanelBudgetInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	withProcs(4, func() {
		n := 2*parallel.TileRows + 31
		work, d := randVec(n, rng), randVec(n, rng)
		for _, k := range []int{1, PanelCols - 1, PanelCols, PanelCols + 3, 2*PanelCols + 1} {
			cols := make([][]float64, k)
			for j := range cols {
				cols[j] = randVec(n, rng)
			}
			pc := packCols(n, cols)
			partials := make([]float64, parallel.ReduceBlocks(n)*k)
			ref := refPanelDots(cols, work, d)
			refPlain := refPanelDots(cols, work, nil)
			for _, bud := range testBudgets() {
				got := pc.DDotPanelRangeBudget(bud, 0, k, work, d, nil, partials)
				for j := range ref {
					if got[j] != ref[j] {
						t.Fatalf("k=%d workers=%d: DDotPanel[%d] %v != %v", k, bud.Workers(), j, got[j], ref[j])
					}
				}
				got = pc.DDotPanelRangeBudget(bud, 0, k, work, nil, nil, partials)
				for j := range refPlain {
					if got[j] != refPlain[j] {
						t.Fatalf("k=%d workers=%d: plain DDotPanel[%d] %v != %v", k, bud.Workers(), j, got[j], refPlain[j])
					}
				}
			}
		}
	})
}

// TestWidenMinArgmaxBudgetInvariance: the fused widen/min/argmax returns
// the same index and leaves identical dst/dmin for every budget,
// including ties (constant vectors) and pooled arena reuse.
func TestWidenMinArgmaxBudgetInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	withProcs(4, func() {
		for _, n := range []int{1, 513, parallel.TileRows, 3*parallel.TileRows + 9} {
			for trial := 0; trial < 3; trial++ {
				src := make([]int32, n)
				base := make([]int32, n)
				for i := range src {
					src[i] = int32(rng.Intn(64))
					base[i] = int32(rng.Intn(64))
				}
				if trial == 2 { // all-equal: exercises first-max tie-breaking
					for i := range src {
						src[i], base[i] = 7, 7
					}
				}
				tiles := parallel.ReduceBlocks(n)
				idxs, vals := make([]int, tiles), make([]int32, tiles)
				refDst := make([]float64, n)
				refMin := append([]int32(nil), base...)
				refIdx := WidenMinArgmaxBudget(parallel.FixedBudget(1), refDst, refMin, src, nil, nil)
				for _, bud := range testBudgets() {
					dst := make([]float64, n)
					dmin := append([]int32(nil), base...)
					gotIdx := WidenMinArgmaxBudget(bud, dst, dmin, src, idxs, vals)
					if gotIdx != refIdx {
						t.Fatalf("n=%d workers=%d trial=%d: argmax %d != %d", n, bud.Workers(), trial, gotIdx, refIdx)
					}
					for i := range dst {
						if dst[i] != refDst[i] || dmin[i] != refMin[i] {
							t.Fatalf("n=%d workers=%d: element %d diverged", n, bud.Workers(), i)
						}
					}
				}
			}
		}
	})
}

// TestScaledCopyDDotBudgetInvariance: the fused keep-step kernel matches
// the unfused reference bitwise under every budget, for both the
// D-weighted and plain variants.
func TestScaledCopyDDotBudgetInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	withProcs(4, func() {
		for _, n := range []int{100, parallel.TileRows + 1, 2*parallel.TileRows + 77} {
			src, d := randVec(n, rng), randVec(n, rng)
			partials := make([]float64, parallel.ReduceBlocks(n))
			refDst := make([]float64, n)
			ref := refScaledDDot(refDst, src, d, 1.25)
			refPlain := refScaledDDot(refDst, src, nil, 1.25)
			var pc PackedCols
			for _, bud := range testBudgets() {
				pc.Ensure(n, 2)
				if got := pc.AppendScaledDDotBudget(bud, src, d, 1.25, partials); got != ref {
					t.Fatalf("n=%d workers=%d: ScaledCopyDDot %v != %v", n, bud.Workers(), got, ref)
				}
				dst := make([]float64, n)
				pc.CopyColIntoBudget(bud, dst, 0)
				for i := range dst {
					if dst[i] != refDst[i] {
						t.Fatalf("n=%d workers=%d: dst[%d] diverged", n, bud.Workers(), i)
					}
				}
				if got := pc.AppendScaledDDotBudget(bud, src, nil, 1.25, partials); got != refPlain {
					t.Fatalf("n=%d workers=%d: plain ScaledCopyDDot %v != %v", n, bud.Workers(), got, refPlain)
				}
			}
		}
	})
}

// TestLapMulBudgetInvariance: the column-at-a-time SpMV agrees bitwise
// across budgets, and the tiled kernel agrees with it.
func TestLapMulBudgetInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := gen.Path(2*parallel.TileRows + 13)
	n := g.NumV
	deg := g.WeightedDegrees()
	withProcs(4, func() {
		s := NewDense(n, 6)
		copy(s.Data, randVec(n*6, rng))
		ref := refLapMul(g, deg, s)
		for _, bud := range testBudgets() {
			got := NewDense(n, 6)
			for j := 0; j < s.Cols; j++ {
				LapMulVecBudget(bud, g, deg, s.Col(j), got.Col(j))
			}
			assertDenseEqual(t, "LapMulVec", got, ref)
			tiled := LapMulDenseTiledPackedBudget(bud, g, deg, s, nil, nil, nil)
			assertDenseEqual(t, "LapMulDenseTiledPacked", tiled, ref)
		}
	})
}
