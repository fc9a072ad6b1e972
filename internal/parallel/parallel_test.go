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
		For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
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
	ForBlock(n, func(lo, hi int) {
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
	ForBlock(0, func(lo, hi int) { called = true })
	ForBlock(-5, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}

func TestRunExecutesAllThunks(t *testing.T) {
	var a, b, c int32
	Run(
		func() { atomic.StoreInt32(&a, 1) },
		func() { atomic.StoreInt32(&b, 2) },
		func() { atomic.StoreInt32(&c, 3) },
	)
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("thunks not all run: %d %d %d", a, b, c)
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
	got := SumFloat64(n, func(i int) float64 { return vals[i] })
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("SumFloat64 = %g, want %g", got, want)
	}
}

func TestSumInt64MatchesSerial(t *testing.T) {
	err := quick.Check(func(raw []int16) bool {
		var want int64
		for _, v := range raw {
			want += int64(v)
		}
		got := SumInt64(len(raw), func(i int) int64 { return int64(raw[i]) })
		return got == want
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMaxIndexInt32(t *testing.T) {
	vals := []int32{3, 9, 2, 9, 1}
	if got := MaxIndexInt32(len(vals), func(i int) int32 { return vals[i] }); got != 1 {
		t.Fatalf("MaxIndexInt32 = %d, want 1 (first of tied maxima)", got)
	}
}

func TestMaxIndexInt32Property(t *testing.T) {
	err := quick.Check(func(raw []int32) bool {
		if len(raw) == 0 {
			return true
		}
		got := MaxIndexInt32(len(raw), func(i int) int32 { return raw[i] })
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
	// Exercise the parallel path: ties across different worker blocks must
	// resolve to the smallest index.
	n := 8 * MinGrain
	if got := MaxIndexInt32(n, func(i int) int32 { return 7 }); got != 0 {
		t.Fatalf("tie-break across blocks: got %d, want 0", got)
	}
}

func TestMaxIndexFloat64(t *testing.T) {
	n := 3 * MinGrain
	target := n - 2
	got := MaxIndexFloat64(n, func(i int) float64 {
		if i == target {
			return 100
		}
		return float64(i % 10)
	})
	if got != target {
		t.Fatalf("MaxIndexFloat64 = %d, want %d", got, target)
	}
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d", Workers())
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
		For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
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
		if got := SumFloat64(n, func(i int) float64 { return vals[i] }); math.Abs(got-want) > 1e-6 {
			t.Fatalf("SumFloat64 under 4 procs: %g want %g", got, want)
		}
		if got := SumInt64(n, func(i int) int64 { return 2 }); got != int64(2*n) {
			t.Fatalf("SumInt64 under 4 procs: %d", got)
		}
		if idx := MaxIndexInt32(n, func(i int) int32 { return int32(i % 1000) }); idx != 999 {
			t.Fatalf("MaxIndexInt32 under 4 procs: %d", idx)
		}
		if idx := MaxIndexFloat64(n, func(i int) float64 { return -math.Abs(float64(i - 42)) }); idx != 42 {
			t.Fatalf("MaxIndexFloat64 under 4 procs: %d", idx)
		}
	})
}
