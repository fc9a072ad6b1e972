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

// Adversarial equivalence suite for the packed kernels. The hazard of
// packing is silent numerical divergence on shapes where the chunk, tile,
// and panel boundaries interact — row counts straddling PackRows and
// parallel.TileRows, degenerate column counts, empty inputs — so every test
// here compares bitwise against the oracles of oracle_test.go on exactly
// those shapes, under every worker budget, with arenas reused across calls
// the way a pooled workspace reuses them.

// adversarialAtBShapes are the (n, s, t) cases the packed AᵀB kernel
// must survive bitwise: rows not a multiple of the pack chunk or the
// reduction tile, rows below one chunk/tile, single and odd column
// counts (micro-kernel tails), and the empty-row matrix.
var adversarialAtBShapes = []struct{ n, s, t int }{
	{0, 3, 2},                         // empty rows: output must still zero
	{1, 1, 1},                         // scalar corner everywhere
	{5, 1, 3},                         // t odd, s=1: 1x2 + 1x1 tails only
	{100, 7, 5},                       // n < PackRows, both columns odd
	{PackRows - 1, 4, 2},              // one short chunk
	{PackRows, 3, 3},                  // exactly one chunk
	{PackRows + 1, 8, 8},              // chunk + 1-row tail
	{3*PackRows + 17, 5, 4},           // several chunks + ragged tail
	{parallel.TileRows, 7, 2},         // exactly one reduction tile
	{parallel.TileRows + 1, 2, 7},     // first multi-tile shape
	{2*parallel.TileRows + 317, 9, 3}, // tiles and chunks both ragged
	{3*parallel.TileRows + 1, 12, 12}, // wide panel, ragged tiles
}

func fillRand(d *Dense, rng *rand.Rand) {
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
}

func assertDenseEqual(t *testing.T, tag string, got, want *Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", tag, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for k := range want.Data {
		if got.Data[k] != want.Data[k] {
			t.Fatalf("%s: element %d: %v != %v", tag, k, got.Data[k], want.Data[k])
		}
	}
}

// TestAtBPackedAdversarialShapes: the packed AᵀB kernel is bitwise equal
// to the tile-ordered triple loop on every adversarial shape, for every worker budget,
// with both private and reused arenas/partials.
func TestAtBPackedAdversarialShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	arena := &PackArena{} // reused across every shape and budget, like a pooled workspace
	withProcs(4, func() {
		for _, sh := range adversarialAtBShapes {
			a, b := NewDense(sh.n, sh.s), NewDense(sh.n, sh.t)
			fillRand(a, rng)
			fillRand(b, rng)
			ref := refAtB(a, b)
			partials := make([]float64, parallel.ReduceBlocks(sh.n)*sh.s*sh.t)
			for _, bud := range testBudgets() {
				got := AtBPackedBudget(bud, a, b, nil, nil, nil)
				assertDenseEqual(t, "private arena", got, ref)
				got = AtBPackedBudget(bud, a, b, NewDense(sh.s, sh.t), partials, arena)
				assertDenseEqual(t, "pooled arena", got, ref)
			}
		}
	})
}

// TestAtBPackedBudgetInvariance: packed AᵀB agrees with the triple loop
// bitwise across worker budgets while one arena is shared mid-run, so a
// budget change between calls cannot leave stale packed state behind.
func TestAtBPackedBudgetInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	arena := &PackArena{}
	withProcs(4, func() {
		for _, n := range []int{64, parallel.TileRows, 3*parallel.TileRows + 5} {
			s, u := 7, 5
			a, b := NewDense(n, s), NewDense(n, u)
			fillRand(a, rng)
			fillRand(b, rng)
			partials := make([]float64, parallel.ReduceBlocks(n)*s*u)
			ref := refAtB(a, b)
			for _, bud := range testBudgets() {
				got := AtBPackedBudget(bud, a, b, nil, partials, arena)
				assertDenseEqual(t, "packed vs triple loop", got, ref)
			}
		}
	})
}

// lsColCounts are the L·S column counts the bitwise suites run: every
// remainder of the kernel's 8-, 4- and 1-column chunks, alone and after
// one or more full 8-column chunks, up to the s = 64 of mesh_ms64.
var lsColCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 20, 57, 64}

// lsGraphs are the L·S suites' graphs: a skewed-degree kron component,
// unweighted and with integer weights, large enough (> 2·MinGrain rows)
// that budgets 2 and 4 split it into worker blocks whose bounds are not
// multiples of PackRows; and paths whose row counts sit below one chunk,
// just past one chunk, and past two reduction tiles.
func lsGraphs() map[string]*graph.CSR {
	g := graph.LargestComponent(gen.Kron(13, 8, 13))
	return map[string]*graph.CSR{
		"kron":          g,
		"weighted kron": gen.WithRandomWeights(g, 9, 2),
		"path 97":       gen.Path(97),
		"path chunk+3":  gen.Path(PackRows + 3),
		"path 2 tiles":  gen.Path(2*parallel.TileRows + 13),
	}
}

// TestLapMulPackedBudgetInvariance: the fused packed TripleProd kernel
// matches one SpMV per column bitwise for every budget, sharing one arena
// across budgets and shapes. The kron graphs must split into four worker
// blocks under budget 4, or the multi-worker branch goes untested.
func TestLapMulPackedBudgetInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	arena := &PackArena{}
	graphs := lsGraphs()
	if n := graphs["kron"].NumV; parallel.FixedBudget(4).BlockWorkers(n) != 4 {
		t.Fatalf("kron component of %d rows does not split into 4 worker blocks", n)
	}
	withProcs(4, func() {
		for name, g := range graphs {
			deg := g.WeightedDegrees()
			for _, cols := range lsColCounts {
				s := NewDense(g.NumV, cols)
				fillRand(s, rng)
				ref := refLapMul(g, deg, s)
				srm := make([]float64, g.NumV*cols)
				for _, bud := range testBudgets() {
					tag := fmt.Sprintf("%s cols=%d workers=%d", name, cols, bud.Workers())
					got := LapMulDenseTiledPackedBudget(bud, g, deg, s, nil, srm, arena)
					assertDenseEqual(t, tag+" pooled arena", got, ref)
					got = LapMulDenseTiledPackedBudget(bud, g, deg, s, nil, nil, nil)
					assertDenseEqual(t, tag+" private storage", got, ref)
				}
			}
		}
	})
}

// TestPackedColsBitwiseVsFlat: every PackedCols kernel — the fused
// append, the panel multi-dot over a column range, and the fused
// multi-axpy — reproduces its flat-column oracle bitwise, on row counts
// chosen to make tile widths ragged and column counts exercising the
// full-width chunk and every tail width 1…PanelCols−1 after zero and one
// full chunk (and 2·PanelCols+1 for a tail after two).
func TestPackedColsBitwiseVsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var pc PackedCols // zero value + Ensure, like a pooled scratch
	ks := []int{2*PanelCols + 1}
	for k := 1; k <= PanelCols+7; k++ {
		ks = append(ks, k)
	}
	withProcs(4, func() {
		for _, n := range []int{1, 37, parallel.TileRows, 2*parallel.TileRows + 317} {
			for _, k := range ks {
				cols := make([][]float64, k)
				flat := make([][]float64, k)
				srcs := make([][]float64, k)
				for j := range cols {
					srcs[j] = randVec(n, rng)
					flat[j] = make([]float64, n)
				}
				d := randVec(n, rng)
				work := randVec(n, rng)
				partials := make([]float64, parallel.ReduceBlocks(n)*(k+1))
				for _, bud := range testBudgets() {
					pc.Ensure(n, k)
					// Append every column; D-norms must match the flat fused
					// keep-step kernel, and the stored bits must round-trip.
					for j := range srcs {
						a := 0.5 + rng.Float64()
						want := refScaledDDot(flat[j], srcs[j], d, a)
						got := pc.AppendScaledDDotBudget(bud, srcs[j], d, a, partials)
						if got != want {
							t.Fatalf("n=%d k=%d workers=%d: append D-norm %v != %v", n, k, bud.Workers(), got, want)
						}
						unpacked := make([]float64, n)
						pc.CopyColIntoBudget(bud, unpacked, j)
						for i := range unpacked {
							if unpacked[i] != flat[j][i] {
								t.Fatalf("n=%d k=%d col=%d: stored bits diverge at %d", n, k, j, i)
							}
						}
						cols[j] = flat[j]
					}
					if pc.Len() != k {
						t.Fatalf("Len %d != %d", pc.Len(), k)
					}
					// Panel multi-dot over every sub-range the MGS sweep uses.
					for p0 := 0; p0 < k; p0 += PanelCols {
						p1 := p0 + PanelCols
						if p1 > k {
							p1 = k
						}
						want := refPanelDots(cols[p0:p1], work, d)
						got := pc.DDotPanelRangeBudget(bud, p0, p1, work, d, nil, partials)
						for j := range want {
							if got[j] != want[j] {
								t.Fatalf("n=%d k=%d workers=%d panel %d:%d dot[%d] %v != %v", n, k, bud.Workers(), p0, p1, j, got[j], want[j])
							}
						}
						wantPlain := refPanelDots(cols[p0:p1], work, nil)
						gotPlain := pc.DDotPanelRangeBudget(bud, p0, p1, work, nil, nil, partials)
						for j := range wantPlain {
							if gotPlain[j] != wantPlain[j] {
								t.Fatalf("plain panel %d:%d dot[%d] diverged", p0, p1, j)
							}
						}
						// Fused multi-axpy: identical residual updates.
						coeffs := make([]float64, p1-p0)
						for j := range coeffs {
							coeffs[j] = rng.NormFloat64()
						}
						wantWork := append([]float64(nil), work...)
						gotWork := append([]float64(nil), work...)
						refSubtract(wantWork, cols[p0:p1], coeffs)
						pc.SubtractScaledRangeBudget(bud, p0, p1, gotWork, coeffs)
						for i := range wantWork {
							if gotWork[i] != wantWork[i] {
								t.Fatalf("n=%d k=%d workers=%d panel %d:%d: subtract[%d] %v != %v", n, k, bud.Workers(), p0, p1, i, gotWork[i], wantWork[i])
							}
						}
					}
					// The CGS projection: one range over every stored column.
					wantAll := refPanelDots(cols, work, d)
					gotAll := pc.DDotPanelRangeBudget(bud, 0, k, work, d, nil, partials)
					for j := range wantAll {
						if gotAll[j] != wantAll[j] {
							t.Fatalf("n=%d k=%d workers=%d full range dot[%d] %v != %v", n, k, bud.Workers(), j, gotAll[j], wantAll[j])
						}
					}
					wantWork := append([]float64(nil), work...)
					gotWork := append([]float64(nil), work...)
					refSubtract(wantWork, cols, wantAll)
					pc.SubtractScaledRangeBudget(bud, 0, k, gotWork, gotAll)
					for i := range wantWork {
						if gotWork[i] != wantWork[i] {
							t.Fatalf("n=%d k=%d workers=%d full range: subtract[%d] %v != %v", n, k, bud.Workers(), i, gotWork[i], wantWork[i])
						}
					}
				}
			}
		}
	})
}

// TestPackedColsRangeChecks: the packed store panics on out-of-range
// column access instead of reading stale slots, and on an append past its
// capacity instead of overwriting the next tile's first slot.
func TestPackedColsRangeChecks(t *testing.T) {
	var pc PackedCols
	pc.Ensure(16, 2)
	pc.AppendScaledDDotBudget(parallel.FixedBudget(1), make([]float64, 16), nil, 1, nil)
	for name, f := range map[string]func(){
		"dot": func() { pc.DDotPanelRangeBudget(parallel.FixedBudget(1), 0, 2, make([]float64, 16), nil, nil, nil) },
		"subtract": func() {
			pc.SubtractScaledRangeBudget(parallel.FixedBudget(1), 0, 2, make([]float64, 16), make([]float64, 2))
		},
		"mismatch": func() {
			pc.SubtractScaledRangeBudget(parallel.FixedBudget(1), 0, 1, make([]float64, 16), make([]float64, 2))
		},
		"full": func() {
			var full PackedCols
			full.Ensure(16, 1)
			for i := 0; i < 2; i++ {
				full.AppendScaledDDotBudget(parallel.FixedBudget(1), make([]float64, 16), nil, 1, nil)
			}
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzPackedColsEquivalence fuzzes (n, k, seed), keeps k columns in a
// PackedCols store under budgets 1, 2 and 4, and replays every column
// range the Gram-Schmidt sweeps issue on the way there — for each kept
// count L ≤ k, MGS's last panel [PanelCols·⌊(L−1)/PanelCols⌋, L) (its
// earlier panels are the last panels of smaller L) and CGS's [0, L) —
// through the multi-dot, with d and without, and the multi-axpy, bitwise
// against the flat oracles. With k up to 3·PanelCols every tail width
// 1…PanelCols−1 runs after 0, 1 and 2 full chunks.
func FuzzPackedColsEquivalence(f *testing.F) {
	f.Add(0, 3, int64(1))
	f.Add(37, 3*PanelCols, int64(2))
	f.Add(parallel.TileRows+1, 2*PanelCols+7, int64(3))
	f.Add(2*parallel.TileRows+317, PanelCols+5, int64(4))
	var pc PackedCols // reused across inputs, like a pooled scratch
	f.Fuzz(func(t *testing.T, n, k int, seed int64) {
		if n < 0 {
			n = -n
		}
		if k < 0 {
			k = -k
		}
		n %= 2*parallel.TileRows + 512
		k = k%(3*PanelCols) + 1
		rng := rand.New(rand.NewSource(seed))
		cols := make([][]float64, k)
		for j := range cols {
			cols[j] = randVec(n, rng)
		}
		d, work := randVec(n, rng), randVec(n, rng)
		type span struct {
			j0, j1           int
			dots, plain, sub []float64
		}
		var spans []span
		for l := 1; l <= k; l++ {
			starts := []int{0}
			if p := PanelCols * ((l - 1) / PanelCols); p > 0 {
				starts = append(starts, p)
			}
			for _, j0 := range starts {
				sp := span{j0: j0, j1: l}
				sp.dots = refPanelDots(cols[j0:l], work, d)
				sp.plain = refPanelDots(cols[j0:l], work, nil)
				sp.sub = append([]float64(nil), work...)
				refSubtract(sp.sub, cols[j0:l], sp.dots)
				spans = append(spans, sp)
			}
		}
		for _, w := range []int{1, 2, 4} {
			bud := parallel.FixedBudget(w)
			pc.Ensure(n, k)
			for _, c := range cols {
				pc.AppendScaledDDotBudget(bud, c, nil, 1, nil) // a = 1 stores c's bits
			}
			for _, sp := range spans {
				tag := fmt.Sprintf("n=%d k=%d workers=%d range [%d,%d)", n, k, w, sp.j0, sp.j1)
				got := pc.DDotPanelRangeBudget(bud, sp.j0, sp.j1, work, d, nil, nil)
				gotPlain := pc.DDotPanelRangeBudget(bud, sp.j0, sp.j1, work, nil, nil, nil)
				for j := range sp.dots {
					if got[j] != sp.dots[j] || gotPlain[j] != sp.plain[j] {
						t.Fatalf("%s: dot[%d] %v / plain %v != %v / %v", tag, j, got[j], gotPlain[j], sp.dots[j], sp.plain[j])
					}
				}
				gotWork := append([]float64(nil), work...)
				pc.SubtractScaledRangeBudget(bud, sp.j0, sp.j1, gotWork, got)
				for i := range gotWork {
					if gotWork[i] != sp.sub[i] {
						t.Fatalf("%s: subtract[%d] %v != %v", tag, i, gotWork[i], sp.sub[i])
					}
				}
			}
		}
	})
}

// FuzzAtBPackedEquivalence fuzzes (n, s, t, seed) and asserts the packed
// kernel is bitwise equal to the tile-ordered triple loop under serial,
// parallel, and live budgets with a shared arena — the randomized arm of
// the adversarial shape table.
func FuzzAtBPackedEquivalence(f *testing.F) {
	f.Add(0, 3, 2, int64(1))
	f.Add(1, 1, 1, int64(2))
	f.Add(PackRows+1, 8, 8, int64(3))
	f.Add(parallel.TileRows+1, 5, 1, int64(4))
	f.Add(2*parallel.TileRows+317, 9, 3, int64(5))
	arena := &PackArena{}
	f.Fuzz(func(t *testing.T, n, s, u int, seed int64) {
		// Clamp to shapes that stress boundaries without slowing the fuzzer:
		// rows around a few tiles, columns around the 4×2 micro-kernel tile.
		if n < 0 {
			n = -n
		}
		if s < 0 {
			s = -s
		}
		if u < 0 {
			u = -u
		}
		n %= 2*parallel.TileRows + 512
		s = s%17 + 1
		u = u%17 + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := NewDense(n, s), NewDense(n, u)
		fillRand(a, rng)
		fillRand(b, rng)
		ref := refAtB(a, b)
		for _, bud := range []parallel.Budget{parallel.FixedBudget(1), parallel.FixedBudget(3), parallel.Live()} {
			got := AtBPackedBudget(bud, a, b, nil, nil, arena)
			for k := range ref.Data {
				if got.Data[k] != ref.Data[k] {
					t.Fatalf("n=%d s=%d t=%d workers=%d: packed[%d] %v != triple loop %v",
						n, s, u, bud.Workers(), k, got.Data[k], ref.Data[k])
				}
			}
		}
	})
}

// TestPackedColsRowMajorMatchesColumnCopy: RowMajorBudget leaves the
// stored columns [first, Len()) as n×k row-major S, bit for bit what a
// column-by-column copy reads, and an empty store — on one tile, an exact
// multiple of TileRows and uneven tiles, for one column, for all but one
// slot and for a full store, after zero or one leading columns, under
// budgets 1, 2 and 3 with one dirty arena.
func TestPackedColsRowMajorMatchesColumnCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const capCols = 6
	arena := &PackArena{}
	arena.Ensure(3, parallel.TileRows*capCols)
	dirty(arena.buf)
	withProcs(3, func() {
		for _, n := range []int{97, parallel.TileRows, 2 * parallel.TileRows, 2*parallel.TileRows + 14} {
			for _, first := range []int{0, 1} {
				for _, k := range []int{1, capCols - 1, capCols - first} {
					cols := make([][]float64, first+k)
					for j := range cols {
						cols[j] = randVec(n, rng)
					}
					for _, w := range []int{1, 2, 3} {
						tag := fmt.Sprintf("n=%d tiles=%d first=%d k=%d workers=%d", n, parallel.ReduceBlocks(n), first, k, w)
						var pc PackedCols
						pc.Ensure(n, capCols)
						dirty(pc.buf)
						for _, c := range cols {
							pc.AppendScaledDDotBudget(parallel.FixedBudget(1), c, nil, 1, nil)
						}
						want := make([]float64, n*k)
						col := make([]float64, n)
						for j := 0; j < k; j++ {
							pc.CopyColIntoBudget(parallel.FixedBudget(1), col, first+j)
							for i, v := range col {
								want[i*k+j] = v
							}
						}
						got := pc.RowMajorBudget(parallel.FixedBudget(w), first, arena)
						if len(got) != n*k {
							t.Fatalf("%s: len %d, want %d", tag, len(got), n*k)
						}
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("%s: S[%d][%d] = %v, column copy has %v", tag, i/k, i%k, got[i], want[i])
							}
						}
						if pc.Len() != 0 {
							t.Fatalf("%s: %d columns stored after RowMajorBudget, want 0", tag, pc.Len())
						}
					}
				}
			}
		}
	})
}
