package parallel

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, MinGrain - 1, MinGrain, 2*MinGrain + 3, 10 * MinGrain} {
		hits := make([]int32, n)
		Live().For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestForBlockPartitionsRange(t *testing.T) {
	n := 5*MinGrain + 17
	covered := make([]int32, n)
	Live().ForBlock(n, func(lo, hi int) {
		if lo > hi {
			t.Errorf("block [%d,%d) inverted", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

func TestForBlockNegativeAndZero(t *testing.T) {
	called := false
	Live().ForBlock(0, func(lo, hi int) { called = true })
	Live().ForBlock(-5, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}

func TestSumFloat64MatchesSerial(t *testing.T) {
	n := 4*MinGrain + 9
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i%13) - 6
	}
	var want float64
	for _, v := range vals {
		want += v
	}
	for _, bud := range []Budget{FixedBudget(1), FixedBudget(3), Live()} {
		got := Sum(bud, n, func(i int) float64 { return vals[i] })
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("workers=%d: Sum = %g, want %g", bud.Workers(), got, want)
		}
	}
}

func TestSumInt64MatchesSerial(t *testing.T) {
	err := quick.Check(func(raw []int16) bool {
		var want int64
		for _, v := range raw {
			want += int64(v)
		}
		got := Sum(Live(), len(raw), func(i int) int64 { return int64(raw[i]) })
		return got == want
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMaxIndexInt32(t *testing.T) {
	vals := []int32{3, 9, 2, 9, 1}
	if got := MaxIndex(Live(), len(vals), func(i int) int32 { return vals[i] }); got != 1 {
		t.Fatalf("MaxIndex = %d, want 1 (first of tied maxima)", got)
	}
}

func TestMaxIndexInt32Property(t *testing.T) {
	err := quick.Check(func(raw []int32) bool {
		if len(raw) == 0 {
			return true
		}
		got := MaxIndex(Live(), len(raw), func(i int) int32 { return raw[i] })
		for _, v := range raw {
			if v > raw[got] {
				return false
			}
		}
		// First-index tie-break.
		for i := 0; i < got; i++ {
			if raw[i] == raw[got] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMaxIndexInt32LargeFirstTieBreak(t *testing.T) {
	// Ties across different tiles, fanned out or not, must resolve to the
	// smallest index — within a tile and across tiles.
	n := 3*TileRows + 5
	for _, bud := range []Budget{FixedBudget(1), FixedBudget(2), FixedBudget(4)} {
		if got := MaxIndex(bud, n, func(i int) int32 { return 7 }); got != 0 {
			t.Fatalf("workers=%d: tie-break across tiles: got %d, want 0", bud.Workers(), got)
		}
		key := func(i int) int32 { return int32(i % (TileRows + 1)) } // max TileRows at indices TileRows, 2·TileRows+1
		if got := MaxIndex(bud, n, key); got != TileRows {
			t.Fatalf("workers=%d: tie-break across tiles: got %d, want %d", bud.Workers(), got, TileRows)
		}
	}
}

func TestMaxIndexFloat64(t *testing.T) {
	n := 3 * MinGrain
	target := n - 2
	got := MaxIndex(FixedBudget(2), n, func(i int) float64 {
		if i == target {
			return 100
		}
		return float64(i % 10)
	})
	if got != target {
		t.Fatalf("MaxIndex = %d, want %d", got, target)
	}
	// Over several tiles every budget picks the same index, NaN keys
	// included: one worker combines tile maxima in tile order too, so
	// a NaN heading tile 1 hides that tile's larger key on every path.
	n = 3*TileRows + 77
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64((i * 7919) % 1009)
	}
	lo1, hi1 := n/4, n/2 // tile 1 of ReduceBlocks(n) = 4
	vals[lo1] = math.NaN()
	vals[lo1+9] = 5000
	want := -1
	for i, v := range vals {
		if v == 1008 && (i < lo1 || i >= hi1) {
			want = i
			break
		}
	}
	key := func(i int) float64 { return vals[i] }
	withProcs(t, 4, func() {
		for _, bud := range []Budget{FixedBudget(1), FixedBudget(2), FixedBudget(4), Live()} {
			if got := MaxIndex(bud, n, key); got != want {
				t.Fatalf("workers=%d: MaxIndex = %d, want %d (first 1008 outside the NaN-headed tile 1)", bud.Workers(), got, want)
			}
		}
	})
}

func TestWorkersPositive(t *testing.T) {
	if w := Live().Workers(); w < 1 {
		t.Fatalf("Live().Workers() = %d", w)
	}
}

// withProcs runs f under an elevated GOMAXPROCS so the fan-out code paths
// execute even when the test host defaults to one core.
func withProcs(t *testing.T, p int, f func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(prev)
	f()
}

func TestParallelPathsUnderMultipleWorkers(t *testing.T) {
	withProcs(t, 4, func() {
		n := 8 * MinGrain
		hits := make([]int32, n)
		Live().For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("For under 4 procs: index %d hit %d times", i, h)
			}
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i % 7)
		}
		var want float64
		for _, v := range vals {
			want += v
		}
		if got := Sum(Live(), n, func(i int) float64 { return vals[i] }); math.Abs(got-want) > 1e-6 {
			t.Fatalf("float Sum under 4 procs: %g want %g", got, want)
		}
		if got := Sum(Live(), n, func(i int) int64 { return 2 }); got != int64(2*n) {
			t.Fatalf("int Sum under 4 procs: %d", got)
		}
		if idx := MaxIndex(Live(), n, func(i int) int32 { return int32(i % 1000) }); idx != 999 {
			t.Fatalf("int32 MaxIndex under 4 procs: %d", idx)
		}
		if idx := MaxIndex(Live(), n, func(i int) float64 { return -math.Abs(float64(i - 42)) }); idx != 42 {
			t.Fatalf("float64 MaxIndex under 4 procs: %d", idx)
		}
	})
}

// TestSumBudgetInvariance: a sum over n spanning several tiles is bitwise
// equal under every budget — the serial loop, 2 and 4 workers, and the
// live budget — because the tile grid and the combine order depend on n
// alone. The summands are chosen so that regrouping them changes the
// rounded result.
func TestSumBudgetInvariance(t *testing.T) {
	n := 3*TileRows + 77
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1 / float64(i+1)
		if i%3 == 0 {
			vals[i] *= 1e8
		}
	}
	f := func(i int) float64 { return vals[i] }
	withProcs(t, 4, func() {
		want := Sum(FixedBudget(1), n, f)
		var blocked float64 // one block per worker: the grouping the grid replaces
		for w := 0; w < 2; w++ {
			var s float64
			for i := w * n / 2; i < (w+1)*n/2; i++ {
				s += vals[i]
			}
			blocked += s
		}
		if blocked == want {
			t.Fatal("summands do not distinguish groupings; the test checks nothing")
		}
		for _, bud := range []Budget{FixedBudget(2), FixedBudget(4), Live()} {
			if got := Sum(bud, n, f); got != want {
				t.Fatalf("workers=%d: Sum = %v, want %v (bitwise, as with one worker)", bud.Workers(), got, want)
			}
		}
	})
}

// TestFoldTilesBudgetInvariance: FoldTiles' sums equal Sum's bitwise,
// because both fold per-tile partials in tile order, and its minimum and
// maximum are exact, on 1 to 4 workers and with a scratch too short for
// a fan-out's tile vectors.
func TestFoldTilesBudgetInvariance(t *testing.T) {
	n := 5*TileRows + 123
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1 / float64(i+1)
		if i%3 == 0 {
			vals[i] *= -1e8
		}
	}
	body := func(vals []float64, _, lo, hi int, part []float64) {
		part[1], part[2] = math.Inf(1), math.Inf(-1)
		for _, v := range vals[lo:hi] {
			part[0] += v
			part[1] = math.Min(part[1], v)
			part[2] = math.Max(part[2], v)
		}
	}
	fold := func(acc, part []float64) {
		acc[0] += part[0]
		acc[1] = math.Min(acc[1], part[1])
		acc[2] = math.Max(acc[2], part[2])
	}
	want := [3]float64{Sum(FixedBudget(1), n, func(i int) float64 { return vals[i] }), -1e8, 0.5}
	for p := 1; p <= 4; p++ {
		acc := []float64{0, math.Inf(1), math.Inf(-1)}
		FoldTiles(p, n, vals, acc, make([]float64, 3), body, fold)
		if [3]float64(acc) != want {
			t.Fatalf("p=%d: FoldTiles = %v, want %v (bitwise)", p, acc, want)
		}
	}
}
