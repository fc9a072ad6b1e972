package core

import (
	"fmt"
	"time"
)

// Breakdown records per-phase wall time: the raw material for the paper's
// Figures 3, 5, and 6. All durations are cumulative over a run.
type Breakdown struct {
	BFSTraversal time.Duration // actual traversals (or SSSP)
	BFSOther     time.Duration // source selection, min-update, widening B
	DOrtho       time.Duration // (D-)orthogonalization phase
	LS           time.Duration // TripleProd step 1: P = L·S
	Gemm         time.Duration // TripleProd step 2: Z = Sᵀ·P
	Eigensolve   time.Duration // s×s eigensolve ("Other" in Fig. 3)
	Project      time.Duration // [x, y] = S·Y ("Other" in Fig. 3)
	Centering    time.Duration // PHDE column centering / PivotMDS double centering
	LapBuild     time.Duration // prior baseline: explicit Laplacian materialization
	WarmRefine   time.Duration // warm update of a basis (replaces all phases above)
	Total        time.Duration // whole-run wall time
}

// BFS returns the whole BFS-phase time (traversal + other).
func (b Breakdown) BFS() time.Duration { return b.BFSTraversal + b.BFSOther }

// TripleProd returns the whole TripleProd-phase time (LS + gemm).
func (b Breakdown) TripleProd() time.Duration { return b.LS + b.Gemm }

// Other returns the non-major-phase remainder (eigensolve + projection +
// centering), the paper's "Other" category.
func (b Breakdown) Other() time.Duration {
	return b.Eigensolve + b.Project + b.Centering + b.LapBuild + b.WarmRefine
}

// Percentages returns the Figure 3-style split: BFS, TripleProd, DOrtho,
// Other as percentages of total.
func (b Breakdown) Percentages() (bfsP, tripleP, orthoP, otherP float64) {
	tot := float64(b.Total)
	if tot == 0 {
		return 0, 0, 0, 0
	}
	return 100 * float64(b.BFS()) / tot,
		100 * float64(b.TripleProd()) / tot,
		100 * float64(b.DOrtho) / tot,
		100 * float64(b.Other()) / tot
}

// Phase is one named entry of the per-phase breakdown, in export form.
type Phase struct {
	Name string        // phase id, e.g. "bfs_traversal"
	D    time.Duration // cumulative wall time of the phase
}

// Phases returns the breakdown as an ordered name/duration list, the form
// a metrics layer exports (one gauge per phase).
func (b Breakdown) Phases() []Phase {
	return []Phase{
		{"bfs_traversal", b.BFSTraversal},
		{"bfs_other", b.BFSOther},
		{"dortho", b.DOrtho},
		{"ls", b.LS},
		{"gemm", b.Gemm},
		{"eigensolve", b.Eigensolve},
		{"project", b.Project},
		{"centering", b.Centering},
		{"lap_build", b.LapBuild},
		{"warm_refine", b.WarmRefine},
		{"total", b.Total},
	}
}

// String renders the Figure 3-style percentage split on one line.
func (b Breakdown) String() string {
	bp, tp, op, rp := b.Percentages()
	return fmt.Sprintf("total %v | BFS %v (%.1f%%) TripleProd %v (%.1f%%) DOrtho %v (%.1f%%) Other %v (%.1f%%)",
		b.Total.Round(time.Microsecond), b.BFS().Round(time.Microsecond), bp,
		b.TripleProd().Round(time.Microsecond), tp,
		b.DOrtho.Round(time.Microsecond), op,
		b.Other().Round(time.Microsecond), rp)
}

// timed runs f and adds its wall time to *acc.
func timed(acc *time.Duration, f func()) {
	start := time.Now()
	f()
	*acc += time.Since(start)
}
