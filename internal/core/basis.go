package core

import (
	"context"
	"math"
	"slices"
	"sync"

	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/phase"
	"repro/internal/workspace"
)

// Warm layouts. A cold run is Rayleigh–Ritz on the span of its distance
// basis S: it solves the pencil (Z, M) = (SᵀLS, SᵀDS) and projects S·Y.
// Adding or deleting edge (u, v) changes L by ±(e_u − e_v)(e_u − e_v)ᵀ and
// D in two entries, so with s_v row v of S the pencil updates exactly:
//
//	Z′ = Z ± Σ (s_u − s_v)(s_u − s_v)ᵀ
//	M′ = M + Σ ΔD_v·s_v s_vᵀ − c·cᵀ/vol′,  c = Σ ΔD_v·s_v
//
// where the last term keeps S − 1·cᵀ/vol′ D′-orthogonal to the constant
// vector (PlainOrtho weighs vertices by 1, not degree). An added vertex
// gets the mean S row of its earlier neighbours. Every step but the
// projection is serial, so a warm layout is bitwise identical for every
// worker budget.

// DefaultMaxPriorDelta is the staleness bound: a basis serves a run while
// the edges that differ from its graph, and the vertices added to it, are
// each at most this fraction of the run graph's. Every warm run updates
// the cold layout's basis, never an earlier warm run's, so the bound
// caps the total change since the last cold layout. A disconnected graph,
// which the cold path cannot lay out, is served past the bound.
const DefaultMaxPriorDelta = 0.02

// Basis is a layout's subspace and its graph's pencil on it: S row-major
// (n×k), Z = S̃ᵀLS̃ and M = S̃ᵀDS̃ for S̃ = S − 1·γᵀ. A cold layout's basis
// (NewBasis, γ = 0) is built by the first warm run that needs it, with the
// cold path's own BFS, DOrtho and TripleProd code, so S and Z are bitwise
// the cold layout's; a warm run solves an updated copy. It is safe for
// concurrent use, and a warm run never writes it.
type Basis struct {
	g   *graph.CSR
	opt Options // the cold layout's layoutKey

	mu    sync.Mutex // guards the lazy build
	srm   []float64
	z, m  *linalg.Dense
	gamma []float64
}

// NewBasis returns the basis of the cold layout of g made with opt. It
// costs nothing until a warm run first needs it.
func NewBasis(g *graph.CSR, opt Options) *Basis {
	return &Basis{g: g, opt: opt.layoutKey()}
}

// serves reports whether b may warm-start a layout of g under opt, if g
// is close enough to b's graph (warm checks that).
func (b *Basis) serves(g *graph.CSR, opt Options) bool {
	return b.g.NumV <= g.NumV && !g.Weighted() && !b.g.Weighted() && opt.layoutKey() == b.opt
}

// build makes sure b's pencil exists, on clk's BFS, DOrtho and TripleProd
// phases; the copies it keeps are warm_refine time. A build that fails (a
// cancelled run) leaves the basis for the next run to build.
func (b *Basis) build(ctx context.Context, bud parallel.Budget, clk *phase.Clock, ws *workspace.Workspace, rep *Report) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.srm != nil {
		return nil
	}
	opt := b.opt
	opt.Workspace = ws
	sub, err := buildSubspace(ctx, bud, clk, b.g, min(opt.Subspace, b.g.NumV-1), opt, rep)
	if err != nil {
		return err
	}
	clk.Enter(phase.WarmRefine)
	k := len(sub.dNorms)
	b.m = linalg.NewDense(k, k)
	for i, d := range sub.dNorms {
		b.m.Set(i, i, d)
	}
	// The subspace may live in the workspace: keep copies.
	b.srm, b.z = slices.Clone(sub.srm), sub.z.Clone()
	return nil
}

// warm lays out g as an update of b. It returns a nil layout and no error
// when g is connected and too far from the basis graph, or when the
// updated M is not positive definite; the caller then runs cold.
func (b *Basis) warm(ctx context.Context, bud parallel.Budget, clk *phase.Clock, g *graph.CSR, opt Options, rep *Report) (*Layout, error) {
	clk.Enter(phase.WarmRefine)
	n, n0 := float64(g.NumV), float64(b.g.NumV)
	flips, ok := diffEdges(b.g, g, int(DefaultMaxPriorDelta*float64(g.NumEdges())))
	if !ok || n-n0 > DefaultMaxPriorDelta*n {
		if _, parts := graph.Components(g); parts < 2 {
			return nil, nil
		}
		flips, _ = diffEdges(b.g, g, math.MaxInt)
	}
	if err := b.build(ctx, bud, clk, opt.Workspace, rep); err != nil {
		return nil, err
	}
	layout, vals, err := b.update(g, flips, opt.PlainOrtho).project(bud, opt)
	if layout != nil {
		rep.Eigenvalues, rep.Warm, rep.DeltaEdges = vals, true, len(flips)
	}
	return layout, err
}

// update returns the basis of g, which differs from the cold layout's
// graph of b by flips and may add vertices (see the file comment).
func (b *Basis) update(g *graph.CSR, flips []edgeFlip, plain bool) *Basis {
	k, n0, n := b.z.Rows, b.g.NumV, g.NumV
	next := &Basis{g: g, opt: b.opt, srm: b.srm, z: b.z.Clone(), m: b.m.Clone(), gamma: make([]float64, k)}
	row := func(v int32) []float64 { return next.srm[int(v)*k : int(v+1)*k] }
	if n > n0 {
		next.srm = append(b.srm[:n0*k:n0*k], make([]float64, (n-n0)*k)...)
		for v := int32(n0); int(v) < n; v++ {
			placed := 0.0
			for _, w := range g.Neighbors(v) {
				if w < v {
					linalg.Axpy(1, row(w), row(v))
					placed++
				}
			}
			linalg.Scale(1/max(placed, 1), row(v))
		}
	}
	// next.gamma sums c, then scales it to γ = c/vol′.
	d := make([]float64, k)
	weigh := func(v int32, dw float64) {
		addOuter(next.m, dw, row(v))
		linalg.Axpy(dw, row(v), next.gamma)
	}
	for _, f := range flips {
		for i, x := range row(f.v) {
			d[i] = row(f.u)[i] - x
		}
		addOuter(next.z, f.sign, d)
		if !plain {
			weigh(f.u, f.sign)
			weigh(f.v, f.sign)
		}
	}
	vol := float64(len(g.Adj)) // 1ᵀD′1 of the unweighted g
	if plain {
		for v := n0; v < n; v++ {
			weigh(int32(v), 1)
		}
		vol = float64(n)
	}
	addOuter(next.m, -1/vol, next.gamma)
	linalg.Scale(1/vol, next.gamma)
	return next
}

// addOuter adds a·x·xᵀ to the k×k matrix m.
func addOuter(m *linalg.Dense, a float64, x []float64) {
	for j, xj := range x {
		col, axj := m.Col(j), a*xj
		for i, xi := range x {
			col[i] += axj * xi
		}
	}
}

// project solves b's pencil for opt.Dims axes and draws S̃·Y. With
// M = V·Λ·Vᵀ and W = V·Λ^{-1/2}, the axes are Y = W·V′ for the bottom
// eigenvectors V′ of WᵀZW. The layout is nil when M is not positive
// definite.
func (b *Basis) project(bud parallel.Budget, opt Options) (*Layout, []float64, error) {
	lam, w, err := eigen.SymEig(b.m)
	if err != nil || !(lam[0] > 0) {
		return nil, nil, err
	}
	for j, l := range lam {
		linalg.Scale(1/math.Sqrt(l), w.Col(j))
	}
	one := parallel.FixedBudget(1)
	zw := linalg.MulSmallBudget(one, b.z, w, nil)
	a := linalg.NewDense(len(lam), len(lam))
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			a.Set(i, j, linalg.Dot(w.Col(i), zw.Col(j)))
		}
	}
	vals, v, err := eigen.BottomK(a, opt.Dims)
	if err != nil {
		return nil, nil, err
	}
	y := linalg.MulSmallBudget(one, w, v, nil)
	var out *linalg.Dense
	if ws := opt.Workspace; ws != nil {
		out = linalg.ViewDense(ws.Coords, b.g.NumV, y.Cols)
	}
	out = linalg.MulSmallRowMajorBudget(bud, b.srm, y, out)
	for j := 0; j < y.Cols; j++ {
		shift, col := linalg.Dot(b.gamma, y.Col(j)), out.Col(j)
		for i := range col {
			col[i] -= shift
		}
	}
	return &Layout{Coords: out}, vals, nil
}

// edgeFlip is an edge {u, v}, u < v, in exactly one of two graphs: sign
// is +1 when only the newer graph has it.
type edgeFlip struct {
	u, v int32
	sign float64
}

// diffEdges lists the edges that differ between old and cur, whose vertex
// set includes old's, in one merge walk over their sorted rows. ok is
// false, and the walk stops, once more than limit differ.
func diffEdges(old, cur *graph.CSR, limit int) (flips []edgeFlip, ok bool) {
	for u := int32(0); int(u) < cur.NumV; u++ {
		var a []int32 // a vertex old lacks has no edges there
		if int(u) < old.NumV {
			a = old.Neighbors(u)
		}
		b := cur.Neighbors(u)
		if slices.Equal(a, b) {
			continue
		}
		for i, j := 0, 0; i < len(a) || j < len(b); {
			switch {
			case j == len(b) || i < len(a) && a[i] < b[j]:
				if a[i] > u {
					flips = append(flips, edgeFlip{u, a[i], -1})
				}
				i++
			case i == len(a) || b[j] < a[i]:
				if b[j] > u {
					flips = append(flips, edgeFlip{u, b[j], 1})
				}
				j++
			default:
				i, j = i+1, j+1
			}
		}
		if len(flips) > limit {
			return nil, false
		}
	}
	return flips, true
}
