package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestFixedBudgetClampsToOne(t *testing.T) {
	for _, p := range []int{-3, 0, 1} {
		if got := FixedBudget(p).Workers(); got != 1 {
			t.Fatalf("FixedBudget(%d).Workers() = %d, want 1", p, got)
		}
	}
	if got := FixedBudget(7).Workers(); got != 7 {
		t.Fatalf("FixedBudget(7).Workers() = %d, want 7", got)
	}
	if !FixedBudget(1).Fixed() {
		t.Fatal("FixedBudget(1).Fixed() = false")
	}
}

func TestLiveBudgetFollowsGOMAXPROCS(t *testing.T) {
	bud := Live()
	if bud.Fixed() {
		t.Fatal("Live().Fixed() = true")
	}
	withProcs(t, 3, func() {
		if got := bud.Workers(); got != 3 {
			t.Fatalf("live Workers() under GOMAXPROCS(3) = %d", got)
		}
	})
	withProcs(t, 1, func() {
		if got := bud.Workers(); got != 1 {
			t.Fatalf("live Workers() under GOMAXPROCS(1) = %d", got)
		}
	})
}

// TestSnapshotBudgetPinsAcrossSweep: the once-per-layout snapshot is the
// mid-layout repartitioning fix — a budget captured at 4 must keep
// reporting 4 even after the harness moves GOMAXPROCS.
func TestSnapshotBudgetPinsAcrossSweep(t *testing.T) {
	var bud Budget
	withProcs(t, 4, func() { bud = SnapshotBudget() })
	withProcs(t, 1, func() {
		if got := bud.Workers(); got != 4 {
			t.Fatalf("snapshot taken at 4 reports %d workers after GOMAXPROCS(1)", got)
		}
	})
	if !bud.Fixed() {
		t.Fatal("SnapshotBudget().Fixed() = false")
	}
}

func TestBlockWorkersClamp(t *testing.T) {
	cases := []struct{ n, p, want int }{
		{100, 8, 1},              // below 2*MinGrain: serial
		{2*MinGrain - 1, 8, 1},   // still below the threshold
		{2 * MinGrain, 8, 2},     // 2048 rows -> 2 grains
		{10 * MinGrain, 4, 4},    // plenty of grains: keep p
		{10 * MinGrain, 100, 10}, // more workers than grains: clamp
		{3*MinGrain + 1, 100, 4}, // ceil(n/MinGrain)
		{10 * MinGrain, 1, 1},    // serial budget stays serial
		{10 * MinGrain, 0, 1},    // degenerate p
	}
	for _, c := range cases {
		if got := blockWorkers(c.n, c.p); got != c.want {
			t.Errorf("blockWorkers(%d, %d) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// TestBudgetForBlockCoversRange: the static partition covers [0, n)
// exactly once and in-block order for fixed and live budgets.
func TestBudgetForBlockCoversRange(t *testing.T) {
	withProcs(t, 4, func() {
		n := 3*MinGrain + 5
		for _, bud := range []Budget{FixedBudget(1), FixedBudget(3), Live()} {
			seen := make([]int32, n)
			bud.ForBlock(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d: index %d visited %d times", bud.Workers(), i, c)
				}
			}
		}
	})
}

// TestBudgetForBlockGoroutineBound: ForBlock never runs more goroutines
// than blockWorkers allows, even with an oversized fixed budget.
func TestBudgetForBlockGoroutineBound(t *testing.T) {
	n := 4 * MinGrain // 4 grains
	var peak, cur int32
	FixedBudget(64).ForBlock(n, func(lo, hi int) {
		c := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
		runtime.Gosched()
		atomic.AddInt32(&cur, -1)
	})
	if peak > 4 {
		t.Fatalf("ForBlock ran %d concurrent bodies for %d grains", peak, n/MinGrain)
	}
}
