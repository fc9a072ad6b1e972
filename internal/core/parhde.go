package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/bfs"
	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/ortho"
	"repro/internal/parallel"
	"repro/internal/pivot"
)

// Report describes what a layout run did: the per-phase timing breakdown
// and the algorithmic statistics the evaluation section charts.
type Report struct {
	// Breakdown is the per-phase wall-time split.
	Breakdown Breakdown
	// Sources lists the chosen pivot vertices in selection order.
	Sources []int32
	// KeptColumns counts subspace columns that survived
	// D-orthogonalization; DroppedColumns counts those rejected as
	// (near-)dependent.
	KeptColumns    int
	DroppedColumns int // columns rejected as (near-)dependent
	// Eigenvalues are the projected-problem eigenvalues backing the chosen
	// axes (ascending for ParHDE: approximations to the smallest
	// non-degenerate generalized eigenvalues µ of Lu = µDu).
	Eigenvalues []float64
	// BFSStats records per-traversal direction choices and scanned-edge
	// counts: one entry per pivot (k-centers) or per 64-source
	// multi-source batch (random-msbfs).
	BFSStats []bfs.Stats
	// Workers is the worker budget the run actually used (the snapshot
	// taken when Options.Workers ≤ 0).
	Workers int
	// Warm reports that the run was an update of Options.Basis instead of
	// the full BFS + DOrtho + TripleProd pipeline.
	Warm bool
	// DeltaEdges counts the edges a warm run found differing between the
	// basis graph and its own (0 for cold runs).
	DeltaEdges int
}

// BFSTotals aggregates BFSStats across every traversal of the run: the
// top-down vs bottom-up step split and total scanned edges that the
// server exports as Prometheus counters and the scaling sweep records
// per point.
func (r *Report) BFSTotals() bfs.Stats {
	var t bfs.Stats
	for i := range r.BFSStats {
		t.Add(r.BFSStats[i])
	}
	return t
}

// ParHDE computes a p-dimensional layout of the connected graph g with the
// parallel High-Dimensional Embedding algorithm (Algorithm 3): s
// traversals from farthest-first (or random) pivots, D-orthogonalization
// of the distance vectors, the fused triple product SᵀLS, a small
// eigensolve, and the subspace projection.
func ParHDE(g *graph.CSR, opt Options) (*Layout, *Report, error) {
	return ParHDECtx(context.Background(), g, opt)
}

// ParHDECtx is ParHDE with cooperative cancellation: ctx is checked at
// every phase boundary (BFS+DOrtho → TripleProd → eigensolve → projection)
// and before every traversal of the BFS loop, so a cancelled run stops
// within one traversal rather than after a phase completes (a 64-source
// RandomMS batch, or a Random round of one BFS per worker, is one
// traversal in this sense). On cancellation the returned error satisfies
// errors.Is(err, ctx.Err()). Phase transitions are reported to any
// observer installed with WithPhaseNotify.
func ParHDECtx(ctx context.Context, g *graph.CSR, opt Options) (*Layout, *Report, error) {
	opt = opt.withDefaults()
	if g.NumV < 2 {
		return nil, nil, fmt.Errorf("core: graph has %d vertices, need at least 2", g.NumV)
	}
	rep := &Report{}
	bd := &rep.Breakdown
	n := g.NumV
	s := opt.Subspace
	if s >= n {
		s = n - 1
	}
	ws := opt.Workspace
	if ws != nil {
		ws.Reshape(n, s, opt.Dims)
	}
	bud := opt.budget(rep)

	var layout *Layout
	var err error
	timed(&bd.Total, func() {
		if err = ctx.Err(); err != nil {
			return
		}
		// A basis of an earlier version of g replaces the whole pipeline
		// with an exact update of its projected problem; a stale or
		// incompatible basis falls through to the cold path below.
		if b := opt.Basis; b != nil && b.serves(g, opt) {
			tried := *rep
			if layout, err = b.warm(ctx, bud, g, opt, rep); layout != nil || err != nil {
				return
			}
			// A run that falls back reports its cold run alone: no
			// warm_refine time and no traversals of a basis build.
			*rep = tried
		}

		var sub subspace
		sub, err = buildSubspace(ctx, bud, g, s, opt, rep)
		if err != nil {
			return
		}

		// --- Eigensolve ---------------------------------------------------
		if err = ctx.Err(); err != nil {
			return
		}
		NotifyPhase(ctx, "eigensolve")
		var axes *linalg.Dense
		timed(&bd.Eigensolve, func() {
			var esc *eigen.Scratch
			if ws != nil {
				esc = ws.Eigen
			}
			axes, rep.Eigenvalues, err = projectedAxes(sub.z, sub.dNorms, opt.Dims, esc)
		})
		if err != nil {
			return
		}

		// --- Projection [x, y] = S·Y --------------------------------------
		if err = ctx.Err(); err != nil {
			return
		}
		NotifyPhase(ctx, "project")
		timed(&bd.Project, func() {
			var c *linalg.Dense
			if ws != nil {
				c = linalg.ViewDense(ws.Coords, n, axes.Cols)
			}
			layout = &Layout{Coords: linalg.MulSmallRowMajorBudget(bud, sub.srm, axes, c)}
		})
	})
	if err != nil {
		return nil, nil, err
	}
	return layout, rep, nil
}

// subspace is what the BFS + DOrtho and TripleProd phases hand the
// eigensolve: Z = SᵀLS (k×k), S row-major (n×k) and the diagonal of SᵀDS.
type subspace struct {
	z      *linalg.Dense
	srm    []float64
	dNorms []float64
}

// buildSubspace runs the BFS + DOrtho and TripleProd phases of g. Its
// results live in opt.Workspace when there is one.
func buildSubspace(ctx context.Context, bud parallel.Budget, g *graph.CSR, s int, opt Options, rep *Report) (subspace, error) {
	bd := &rep.Breakdown
	ws := opt.Workspace
	n := g.NumV
	// diag(D) weights DOrtho's inner products, so its time is DOrtho's.
	var deg []float64
	timed(&bd.DOrtho, func() {
		if ws != nil {
			ws.Deg = g.WeightedDegreesIntoBudget(bud, ws.Deg)
			deg = ws.Deg
		} else {
			deg = g.WeightedDegreesIntoBudget(bud, nil)
		}
	})

	// --- BFS + DOrtho phase ----------------------------------------------
	NotifyPhase(ctx, "bfs")
	res, err := bfsOrtho(ctx, bud, g, s, deg, opt, rep)
	if err != nil {
		return subspace{}, err
	}
	k := len(res.Kept)
	rep.KeptColumns = k
	rep.DroppedColumns = res.Dropped
	if k < opt.Dims {
		return subspace{}, fmt.Errorf("core: only %d independent distance vectors (need %d); increase the subspace dimension", k, opt.Dims)
	}

	// --- TripleProd phase: Z = Sᵀ(L·S) in one walk over the rows ---------
	if err := ctx.Err(); err != nil {
		return subspace{}, err
	}
	NotifyPhase(ctx, "tripleprod")
	sub := subspace{dNorms: res.DNorms}
	var tripleProd time.Duration
	var lsShare float64
	timed(&tripleProd, func() {
		var zOut *linalg.Dense
		var partials []float64
		var arena *linalg.PackArena
		if ws != nil {
			zOut, sub.srm, partials, arena = linalg.ViewDense(ws.Z, k, k), ws.SRM[:n*k], ws.GemmPartials, ws.Pack
		} else {
			sub.srm = make([]float64, n*k)
		}
		sub.z, lsShare = linalg.TripleProdBudget(bud, g, deg, res.Packed, 1, zOut, sub.srm, partials, arena)
	})
	// Fig. 5 splits TripleProd into L·S and SᵀP: the walk reports its
	// workers' time in each half, and the phase's wall time is divided in
	// that proportion.
	ls := time.Duration(lsShare * float64(tripleProd))
	bd.LS += ls
	bd.Gemm += tripleProd - ls
	return sub, nil
}

// projectedAxes solves the projected generalized eigenproblem
// (SᵀLS)y = µ(SᵀDS)y, where SᵀDS = diag(dNorms) because the columns are
// D-orthogonal (not D-orthonormal — Algorithm 3 normalizes in the
// Euclidean norm). Substituting y = T·z with T = diag(dNorms)^{-1/2}
// gives the standard symmetric problem (TZT)z = µz; the p axes are the
// back-substituted eigenvectors of the p smallest eigenvalues. TZT, T and
// the axes live in sc (nil means private storage), so with a workspace's
// scratch only the returned eigenvalues are allocated.
func projectedAxes(z *linalg.Dense, dNorms []float64, dims int, sc *eigen.Scratch) (*linalg.Dense, []float64, error) {
	k := z.Rows
	if sc == nil {
		sc = &eigen.Scratch{}
	}
	zs, t := sc.Input(k)
	for i := range t {
		if dNorms[i] <= 0 {
			return nil, nil, fmt.Errorf("core: non-positive D-norm %g for column %d", dNorms[i], i)
		}
		t[i] = 1 / math.Sqrt(dNorms[i])
	}
	for j := 0; j < k; j++ {
		for i := 0; i < k; i++ {
			zs.Set(i, j, z.At(i, j)*t[i]*t[j])
		}
	}
	vals, vecs, err := eigen.BottomKScratch(zs, dims, sc)
	if err != nil {
		return nil, nil, err
	}
	// Back-substitute y = T·z.
	for j := 0; j < vecs.Cols; j++ {
		col := vecs.Col(j)
		for i := range col {
			col[i] *= t[i]
		}
	}
	return vecs, append([]float64(nil), vals...), nil
}

// splitmix advances one splitmix64 step, used for the start-vertex draw.
func splitmix(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// bfsOrtho is the BFS and DOrtho phases as one stream (§4.4's coupled BFS
// and D-orthogonalization): the pivot strategy hands each distance column,
// in pivot order, to one incremental orthogonalizer, so the n×s distance
// matrix is never stored. The pivot loop checks ctx before every
// traversal, and the first column is checked for reachability before the
// second traversal starts.
func bfsOrtho(ctx context.Context, bud parallel.Budget, g *graph.CSR, s int, deg []float64, opt Options, rep *Report) (ortho.Result, error) {
	bd := &rep.Breakdown
	if opt.PlainOrtho {
		deg = nil
	}
	var osc *ortho.Scratch
	var psc *pivot.Scratch
	if ws := opt.Workspace; ws != nil {
		osc, psc = ws.Ortho, ws.Pivot
	}
	inc := ortho.NewIncremental(bud, g.NumV, s, deg, opt.Ortho, osc)
	start := int32(splitmix(opt.Seed) % uint64(g.NumV))
	// The timing closures are built once per run, not once per column.
	var col []float64
	add := func() { inc.Add(col) }
	emit := func(i int, c []float64) error {
		if i == 0 {
			if err := checkConnected(c, start); err != nil {
				return err
			}
		}
		col = c
		timed(&bd.DOrtho, add)
		return nil
	}
	onTrav := func(f func()) { timed(&bd.BFSTraversal, f) }
	onOther := func(f func()) { timed(&bd.BFSOther, f) }
	var ps pivot.PhaseStats
	var err error
	if g.Weighted() {
		ps, err = pivot.StreamWeighted(ctx, bud, g, s, start, opt.Delta, emit, onTrav, onOther)
	} else {
		ps, err = pivot.Stream(ctx, bud, g, s, start, opt.Pivots, bfs.Options{}, psc, emit, onTrav, onOther)
	}
	if err != nil {
		return ortho.Result{}, err
	}
	rep.Sources = ps.Sources
	rep.BFSStats = ps.Traversal
	return inc.Packed(), nil
}

// checkConnected is the one reachability check every layout runs on its
// first distance column: a negative hop count (bfs.Unreached) or an
// infinite weighted distance means some vertex is in another component.
func checkConnected(col []float64, src int32) error {
	for v, d := range col {
		if d < 0 || math.IsInf(d, 1) {
			return fmt.Errorf("core: graph is not connected (vertex %d unreachable from %d); extract the largest component first", v, src)
		}
	}
	return nil
}
