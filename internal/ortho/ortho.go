// Package ortho implements the DOrtho phase of ParHDE: Gram-Schmidt-style
// (D-)orthogonalization of the BFS distance vectors against the constant
// vector and each other, with near-linearly-dependent columns dropped
// (ICPP'20 Algorithm 3, lines 9-16). Two procedures are provided, sharing
// one column-at-a-time sweep (Incremental) over one packed kept-column
// store and differing only in how a candidate is projected against the
// kept columns. The default, MGS, is panel-blocked Gram-Schmidt: one
// PanelCols-wide panel at a time, each panel costing one fused multi-dot
// pass and one fused multi-axpy pass instead of a dot/axpy pair per
// column — the bandwidth-lean formulation of the paper's Level-1
// procedure. CGS is Classical Gram-Schmidt organized as Level-2
// matrix-vector products (Table 7), which trades numerical robustness for
// the fewest synchronization points.
package ortho

import (
	"math"

	"repro/internal/linalg"
	"repro/internal/parallel"
)

// Method selects the orthogonalization procedure.
type Method int

const (
	// MGS is panel-blocked (modified) Gram-Schmidt: the candidate is
	// orthogonalized against previously kept columns panel by panel, with
	// one fused multi-dot and one fused multi-axpy pass per panel.
	// Coefficients within a panel are computed from the same candidate
	// state (classical within the panel, modified across panels) — the
	// standard block Gram-Schmidt compromise.
	MGS Method = iota
	// CGS is Classical Gram-Schmidt: all projection coefficients for a
	// column are computed from the original column at once (Level-2 BLAS).
	CGS
)

func (m Method) String() string {
	if m == CGS {
		return "CGS"
	}
	return "MGS"
}

// DropTolerance is the residual-norm threshold below which a column is
// considered linearly dependent and discarded (Algorithm 3, line 12).
const DropTolerance = 1e-3

// Result is the output of an orthogonalization pass. It aliases the
// storage of the Scratch the pass ran over, so with a caller-provided
// scratch it is valid only until that scratch's next use.
type Result struct {
	// S holds the kept orthonormal columns (the 0th constant column is
	// already dropped, per Algorithm 3 line 16). Columns have unit
	// Euclidean norm. Incremental.Packed leaves it nil.
	S *linalg.Dense
	// Packed is the sweep's tile-major kept-column store: S's column j is
	// its stored column j+1 (column 0 is the constant direction).
	Packed *linalg.PackedCols
	// DNorms[j] = S_jᵀ D S_j for each kept column: the diagonal of SᵀDS,
	// needed to convert the projected eigenproblem to standard form when
	// D-orthogonalization (rather than D-orthonormalization) is used.
	DNorms []float64
	// Kept lists the indices of the input columns that survived.
	Kept []int
	// Dropped counts discarded near-dependent columns.
	Dropped int
}

// DOrthogonalizeBudget orthogonalizes the columns of b against 1/√n and
// each other under the D-inner product ⟨x,y⟩_D = xᵀdiag(d)y. Passing
// d == nil selects the plain orthogonalization variant of §4.5.1
// (approximating Laplacian rather than degree-normalized eigenvectors). b
// is not modified. The sweep runs over sc's pooled buffers (nil allocates
// private scratch) and performs no O(n)-sized allocations when they are
// already shaped. The budget only sets how many goroutines each kernel
// fans out across; the fixed row tiling of every reduction makes the
// numbers bitwise identical for every budget, one worker included,
// and for pooled and private scratch.
func DOrthogonalizeBudget(bud parallel.Budget, b *linalg.Dense, d []float64, method Method, sc *Scratch) Result {
	inc := NewIncremental(bud, b.Rows, b.Cols, d, method, sc)
	for i := 0; i < b.Cols; i++ {
		inc.Add(b.Col(i))
	}
	return inc.Result()
}

// Incremental orthogonalizes one column at a time, so the BFS phase can
// hand it each distance vector as soon as its traversal finishes and the
// raw O(sn) distance matrix never needs to be stored (§4.4's "coupled BFS
// and D-orthogonalization"). Both methods stream: a column is projected
// only against columns already kept, so CGS needs no look-ahead either.
// DOrthogonalizeBudget is the same sweep fed from a stored matrix, so
// streamed and stored runs are bitwise identical.
type Incremental struct {
	n       int
	d       []float64 // nil = plain orthogonalization
	bud     parallel.Budget
	method  Method
	sc      *Scratch
	dropped int
	seen    int
}

// NewIncremental starts an orthogonalization of up to capacity length-n
// vectors with D-inner products diag(d) (nil for plain inner products),
// over sc's pooled buffers (nil allocates private scratch). The scratch is
// shaped for capacity columns and the kept-column store is seeded with
// s0 = 1/√n, the degenerate direction every column must be cleaned of.
// Every Add reuses bud, so the orthogonalization fan-out is pinned for the
// whole sweep. It returns a value so a caller's sweep state can live on its
// stack; all storage is in the scratch.
func NewIncremental(bud parallel.Budget, n, capacity int, d []float64, method Method, sc *Scratch) Incremental {
	if sc == nil {
		sc = NewScratch(n, capacity)
	} else {
		sc.Ensure(n, capacity)
	}
	sc.packed.Ensure(n, sc.s+1)
	linalg.FillBudget(bud, sc.work, 1/math.Sqrt(float64(n)))
	sc.dNorms = append(sc.dNorms[:0], sc.packed.AppendScaledDDotBudget(bud, sc.work, d, 1, sc.partials))
	sc.keptIdx = sc.keptIdx[:0]
	return Incremental{n: n, d: d, bud: bud, method: method, sc: sc}
}

// Add orthogonalizes col against everything kept so far and keeps it if it
// survives the drop tolerance. col is not modified. Reports whether the
// column was kept. Keeping more columns than the capacity the sweep was
// started with panics.
func (inc *Incremental) Add(col []float64) bool {
	if len(col) != inc.n {
		panic("ortho: Incremental.Add dimension mismatch")
	}
	idx := inc.seen
	inc.seen++
	sc, bud := inc.sc, inc.bud
	// Pre-normalize so the drop tolerance is scale-free (Algorithm 1
	// normalizes each column before orthogonalizing). The norm is taken
	// over the source column and folded into the copy, one fused pass
	// instead of copy + norm + scale.
	nrm := norm2P(bud, col, sc.partials)
	if nrm <= DropTolerance {
		inc.dropped++
		return false
	}
	linalg.ScaledCopyBudget(bud, sc.work, col, 1/nrm)
	inc.project()
	res := norm2P(bud, sc.work, sc.partials)
	if res <= DropTolerance {
		inc.dropped++
		return false
	}
	// Keep: normalize into the packed store and compute the D-norm in the
	// same fused pass.
	dn := sc.packed.AppendScaledDDotBudget(bud, sc.work, inc.d, 1/res, sc.partials)
	sc.dNorms = append(sc.dNorms, dn)
	sc.keptIdx = append(sc.keptIdx, idx)
	return true
}

// project removes the work vector's components along the kept columns,
// one range of columns at a time: a fused multi-dot pass yields the
// range's coefficients and a fused multi-axpy applies the combined
// update. MGS walks PanelCols-wide panels, so later panels see the
// updated vector; CGS takes every kept column in one range, so all
// coefficients come from the original vector — the Level-2 formulation of
// Table 7, two sweeps over memory in total.
func (inc *Incremental) project() {
	sc := inc.sc
	k := sc.packed.Len()
	width := linalg.PanelCols
	if inc.method == CGS {
		width = k
	}
	for p0 := 0; p0 < k; p0 += width {
		p1 := min(p0+width, k)
		sc.coeffs = sc.packed.DDotPanelRangeBudget(inc.bud, p0, p1, sc.work, inc.d, sc.coeffs[:0], sc.panelPartials)
		for j := range sc.coeffs {
			sc.coeffs[j] /= sc.dNorms[p0+j]
		}
		sc.packed.SubtractScaledRangeBudget(inc.bud, p0, p1, sc.work, sc.coeffs)
	}
}

// Result unpacks the kept columns (constant column excluded) into the
// scratch's output matrix, allocated on first use. The Incremental must
// not be used after.
func (inc *Incremental) Result() Result {
	sc, res := inc.sc, inc.Packed()
	if sc.sOut == nil || sc.sOut.Rows != inc.n || sc.sOut.Cols < sc.s {
		sc.sOut = linalg.NewDense(inc.n, sc.s)
	}
	res.S = linalg.ViewDense(sc.sOut.Data, inc.n, len(res.Kept))
	for j := range res.Kept {
		res.Packed.CopyColIntoBudget(inc.bud, res.S.Col(j), j+1) // skip the constant column
	}
	return res
}

// Packed is Result without the unpacking: S stays nil, and a caller reads
// the kept columns where the sweep left them, in Result.Packed.
func (inc *Incremental) Packed() Result {
	sc := inc.sc
	return Result{Packed: &sc.packed, DNorms: sc.dNorms[1:], Kept: sc.keptIdx, Dropped: inc.dropped}
}

// norm2P computes ‖x‖₂ with the shared partials buffer.
func norm2P(bud parallel.Budget, x, partials []float64) float64 {
	return math.Sqrt(linalg.DotBudget(bud, x, x, partials))
}
