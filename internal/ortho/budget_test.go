package ortho

import (
	"runtime"
	"testing"

	"repro/internal/parallel"
)

// TestDOrthogonalizeBudgetInvariance: every method produces bitwise
// identical kept columns, D-norms, and drop sets for worker budgets
// 1, 2, 4 and the live budget, with and without a degree weighting.
func TestDOrthogonalizeBudgetInvariance(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	n, s := 9000, 9
	degrees := randDegrees(n, 3)
	budgets := []parallel.Budget{
		parallel.FixedBudget(1),
		parallel.FixedBudget(2),
		parallel.FixedBudget(4),
		parallel.Live(),
	}
	for _, method := range []Method{MGS, CGS} {
		for _, d := range [][]float64{nil, degrees} {
			ref := DOrthogonalizeBudget(parallel.FixedBudget(1), randMatrix(n, s, 7), d, method, nil)
			for _, bud := range budgets {
				got := DOrthogonalizeBudget(bud, randMatrix(n, s, 7), d, method, nil)
				if len(got.Kept) != len(ref.Kept) || got.Dropped != ref.Dropped {
					t.Fatalf("%v workers=%d: kept %d/dropped %d, want %d/%d",
						method, bud.Workers(), len(got.Kept), got.Dropped, len(ref.Kept), ref.Dropped)
				}
				for j, k := range ref.Kept {
					if got.Kept[j] != k {
						t.Fatalf("%v workers=%d: Kept[%d] = %d, want %d", method, bud.Workers(), j, got.Kept[j], k)
					}
					if got.DNorms[j] != ref.DNorms[j] {
						t.Fatalf("%v workers=%d: DNorms[%d] %v != %v", method, bud.Workers(), j, got.DNorms[j], ref.DNorms[j])
					}
				}
				for k := range ref.S.Data {
					if got.S.Data[k] != ref.S.Data[k] {
						t.Fatalf("%v d=%v workers=%d: S.Data[%d] diverged: %v != %v",
							method, d != nil, bud.Workers(), k, got.S.Data[k], ref.S.Data[k])
					}
				}
			}
		}
	}
}

// TestSharedScratchAcrossMethodsAndBudgets: MGS and CGS sweeps alternating
// mid-run over one shared pooled scratch across worker budgets each
// reproduce their private-scratch single-worker result bitwise — the reuse
// pattern a workspace-backed job worker produces, and the one where stale
// columns left in the packed store by the previous sweep would surface.
func TestSharedScratchAcrossMethodsAndBudgets(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	n, s := 9000, 9
	degrees := randDegrees(n, 3)
	sc := NewScratch(n, s)
	for _, d := range [][]float64{nil, degrees} {
		refs := map[Method]Result{}
		for _, method := range []Method{MGS, CGS} {
			refs[method] = DOrthogonalizeBudget(parallel.FixedBudget(1), randMatrix(n, s, 7), d, method, nil)
		}
		for _, bud := range []parallel.Budget{
			parallel.FixedBudget(1),
			parallel.FixedBudget(2),
			parallel.FixedBudget(4),
			parallel.Live(),
		} {
			for _, method := range []Method{MGS, CGS, MGS} {
				ref := refs[method]
				got := DOrthogonalizeBudget(bud, randMatrix(n, s, 7), d, method, sc)
				if len(got.Kept) != len(ref.Kept) || got.Dropped != ref.Dropped {
					t.Fatalf("%v workers=%d: kept %d/dropped %d, want %d/%d",
						method, bud.Workers(), len(got.Kept), got.Dropped, len(ref.Kept), ref.Dropped)
				}
				for j := range ref.DNorms {
					if got.DNorms[j] != ref.DNorms[j] {
						t.Fatalf("%v workers=%d: DNorms[%d] %v != %v",
							method, bud.Workers(), j, got.DNorms[j], ref.DNorms[j])
					}
				}
				for k := range ref.S.Data {
					if got.S.Data[k] != ref.S.Data[k] {
						t.Fatalf("%v d=%v workers=%d: S.Data[%d] diverged: %v != %v",
							method, d != nil, bud.Workers(), k, got.S.Data[k], ref.S.Data[k])
					}
				}
			}
		}
	}
}

// TestIncrementalBudgetInvariance: the streaming orthogonalizer the BFS
// phase feeds matches the serial reference bitwise for every budget, under
// both methods.
func TestIncrementalBudgetInvariance(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	n, s := 9000, 8
	degrees := randDegrees(n, 5)
	run := func(bud parallel.Budget, d []float64, method Method) Result {
		inc := NewIncremental(bud, n, s, d, method, nil)
		for j := 0; j < s; j++ {
			inc.Add(randMatrix(n, 1, int64(20+j)).Col(0))
		}
		return inc.Result()
	}
	for _, method := range []Method{MGS, CGS} {
		for _, d := range [][]float64{nil, degrees} {
			refRes := run(parallel.FixedBudget(1), d, method)
			for _, p := range []int{2, 4} {
				res := run(parallel.FixedBudget(p), d, method)
				if len(res.Kept) != len(refRes.Kept) {
					t.Fatalf("%v workers=%d: kept %d, want %d", method, p, len(res.Kept), len(refRes.Kept))
				}
				for k := range refRes.S.Data {
					if res.S.Data[k] != refRes.S.Data[k] {
						t.Fatalf("%v workers=%d d=%v: S.Data[%d] diverged", method, p, d != nil, k)
					}
				}
				for j := range refRes.DNorms {
					if res.DNorms[j] != refRes.DNorms[j] {
						t.Fatalf("%v workers=%d: DNorms[%d] diverged", method, p, j)
					}
				}
			}
		}
	}
}
