package core

import (
	"fmt"
	"time"

	"repro/internal/phase"
)

// Breakdown records per-phase wall time: the raw material for the paper's
// Figures 3, 5, and 6: the run's phase clock, read when the layout is done
// (see breakdown), so the phases sum to Total. Fields are in phase.ID order.
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
// a metrics layer exports (one gauge per phase). The names are the
// phase.ID names a running job reports live.
func (b Breakdown) Phases() []Phase {
	d := [...]time.Duration{b.BFSTraversal, b.BFSOther, b.DOrtho, b.LS, b.Gemm,
		b.Eigensolve, b.Project, b.Centering, b.LapBuild, b.WarmRefine}
	ps := make([]Phase, len(d), len(d)+1)
	for i := range d {
		ps[i] = Phase{phase.ID(i).String(), d[i]}
	}
	return append(ps, Phase{"total", b.Total})
}

// breakdown reads clk, the run's clock, into a Breakdown.
func breakdown(clk *phase.Clock) Breakdown {
	d, total := clk.Read()
	return Breakdown{d[phase.BFSTraversal], d[phase.BFSOther], d[phase.DOrtho], d[phase.LS], d[phase.Gemm],
		d[phase.Eigensolve], d[phase.Project], d[phase.Centering], d[phase.LapBuild], d[phase.WarmRefine], total}
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
