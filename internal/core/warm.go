package core

import (
	"context"
	"math"

	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/parallel"
)

// Warm-start refinement: instead of re-running the full BFS + MGS + eigen
// pipeline after a small graph mutation, the prior layout is refined with
// a few batch-parallel SGD sweeps in the style of El Gheche et al.'s
// spectral embedding with implicit orthogonality — each sweep pulls every
// vertex toward the mean of a deterministic sample of its neighbors
// (sampled-edge attraction, a damped degree-smoothing step that contracts
// toward the bottom of the Laplacian spectrum) and then restores the
// spectral-embedding invariants the smoothing erodes: each axis is
// deflated against the trivial eigenvector (D-weighted mean removal),
// D-orthogonalized against the earlier axes, and rescaled to its original
// D-norm. Every vertex update reads only the previous sweep's buffer and
// writes its own row of the next one, so the result is bitwise identical
// for every worker budget; the O(n·p) correction reductions run serially.

const (
	// DefaultWarmSweeps caps the refinement sweep count, which scales
	// with staleness (see defaultSweeps).
	DefaultWarmSweeps = 12
	// DefaultMaxPriorDelta is the staleness bound: a prior is accepted
	// while the mutated edges and the new vertices are each within 2% of
	// the current graph.
	DefaultMaxPriorDelta = 0.02

	// warmSampleK caps the neighbors sampled per vertex per sweep.
	warmSampleK = 8
	// warmEta and warmEtaDecay schedule the attraction step size:
	// η_t = warmEta · warmEtaDecay^t.
	warmEta      = 0.6
	warmEtaDecay = 0.5
)

// warmEligible reports whether opt.Prior can warm-start a layout of g:
// the prior must exist, match the requested dimensionality, cover at most
// the current vertex set (vertex ids never shrink under dyngraph
// mutation), and the accumulated delta must be inside the staleness
// bound. Weighted graphs always run cold — the sweep kernel samples
// unweighted adjacency.
func warmEligible(g *graph.CSR, opt Options) bool {
	prior := opt.Prior
	if prior == nil || prior.Coords == nil || g.Weighted() {
		return false
	}
	n, n0 := g.NumV, prior.NumVertices()
	if prior.Dims() != opt.Dims || opt.Dims > 8 || n0 < 2 || n0 > n {
		return false
	}
	if opt.PriorDeltaEdges < 0 {
		return false
	}
	m := g.NumEdges()
	if m == 0 {
		return false
	}
	return float64(opt.PriorDeltaEdges) <= DefaultMaxPriorDelta*float64(m) &&
		float64(n-n0) <= DefaultMaxPriorDelta*float64(n)
}

// warmRefine runs the sweep loop. The returned layout aliases the
// workspace Coords buffer when one is attached (same contract as the cold
// path); the prior is never written.
func warmRefine(ctx context.Context, bud parallel.Budget, g *graph.CSR, opt Options, rep *Report) (*Layout, error) {
	n, p := g.NumV, opt.Dims
	sweeps := defaultSweeps(g, opt)

	ws := opt.Workspace
	var cur, nxt *linalg.Dense
	var deg []float64
	if ws != nil {
		cur = linalg.ViewDense(ws.Coords, n, p)
		nxt = linalg.ViewDense(ws.Warm, n, p)
		ws.Deg = g.WeightedDegreesIntoBudget(bud, ws.Deg)
		deg = ws.Deg
	} else {
		cur = linalg.NewDense(n, p)
		nxt = linalg.NewDense(n, p)
		deg = g.WeightedDegreesIntoBudget(bud, nil)
	}
	seedPrior(bud, g, opt.Prior, cur, opt.Seed)

	// Capture the spectral invariants of the (deflated) prior: each
	// axis's D-norm is held constant across sweeps so smoothing cannot
	// contract the drawing. Deflating an axis and taking its norm share
	// one pass.
	var tot float64
	for _, d := range deg {
		tot += d
	}
	target := make([]float64, p)
	for j := 0; j < p; j++ {
		col := cur.Col(j)[:len(deg)]
		shift := deflateShift(dSum(deg, col), tot)
		var n2 float64
		for i, d := range deg {
			v := col[i] - shift
			col[i] = v
			n2 += d * v * v
		}
		target[j] = math.Sqrt(n2)
	}

	for t := 0; t < sweeps; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		eta := warmEta * math.Pow(warmEtaDecay, float64(t))
		sweep(bud, g, cur, nxt, eta, opt.Seed, t)
		correct(deg, nxt, target, tot)
		cur, nxt = nxt, cur
	}
	rep.RefineSweeps = sweeps

	if ws != nil && &cur.Data[0] != &ws.Coords[0] {
		out := linalg.ViewDense(ws.Coords, n, p)
		copy(out.Data, cur.Data)
		cur = out
	}
	return &Layout{Coords: cur}, nil
}

// defaultSweeps picks the sweep count of a warm run: proportional to how
// stale the prior is (the larger of the edge-delta and new-vertex
// fractions), because a refinement only has to absorb a local
// perturbation of an already-converged embedding. Two sweeps is
// the floor (one to move, one to settle under the decayed step); the
// count is capped at DefaultWarmSweeps, reached around the
// DefaultMaxPriorDelta staleness bound.
func defaultSweeps(g *graph.CSR, opt Options) int {
	frac := float64(opt.PriorDeltaEdges) / float64(g.NumEdges())
	if vf := float64(g.NumV-opt.Prior.NumVertices()) / float64(g.NumV); vf > frac {
		frac = vf
	}
	sweeps := 2 + int(150*frac)
	if sweeps > DefaultWarmSweeps {
		sweeps = DefaultWarmSweeps
	}
	return sweeps
}

// seedPrior copies the prior coordinates into cur and places vertices the
// prior has never seen (id ≥ prior rows). New vertices are seeded in id
// order at the centroid of their already-placed neighbors — a vertex
// attached only to other new vertices uses whichever of them precede it —
// falling back to a deterministic jitter around the drawing centroid for
// vertices with no placed neighbor at all.
func seedPrior(bud parallel.Budget, g *graph.CSR, prior *Layout, cur *linalg.Dense, seed uint64) {
	n, p := cur.Rows, cur.Cols
	n0 := prior.NumVertices()
	for j := 0; j < p; j++ {
		copyBlock(bud, cur.Col(j)[:n0], prior.Coords.Col(j))
	}
	var centroid []float64 // with span, scanned from the prior on first use
	var span float64
	for i := n0; i < n; i++ {
		placed := 0
		for j := 0; j < p; j++ {
			cur.Col(j)[i] = 0
		}
		for _, w := range g.Neighbors(int32(i)) {
			if int(w) >= i {
				continue
			}
			placed++
			for j := 0; j < p; j++ {
				cur.Col(j)[i] += cur.Col(j)[int(w)]
			}
		}
		if placed > 0 {
			for j := 0; j < p; j++ {
				cur.Col(j)[i] /= float64(placed)
			}
			continue
		}
		if centroid == nil {
			centroid, span = priorExtent(prior)
		}
		h := splitmix(seed ^ uint64(i)*0x9e3779b97f4a7c15)
		for j := 0; j < p; j++ {
			h = splitmix(h)
			// Uniform in ±span/200: close enough to the centroid not to
			// distort the drawing, distinct enough that coincident new
			// vertices separate under later sweeps.
			cur.Col(j)[i] = centroid[j] + span*(float64(h>>11)/float64(1<<53)-0.5)/100
		}
	}
}

// priorExtent returns the prior drawing's centroid and its widest axis
// extent (1 for a drawing collapsed to a point).
func priorExtent(prior *Layout) ([]float64, float64) {
	p, n0 := prior.Dims(), prior.NumVertices()
	centroid := make([]float64, p)
	var span float64
	for j := 0; j < p; j++ {
		mn, mx := math.Inf(1), math.Inf(-1)
		sum := 0.0
		for _, v := range prior.Coords.Col(j) {
			sum += v
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		centroid[j] = sum / float64(n0)
		if s := mx - mn; s > span {
			span = s
		}
	}
	if span == 0 {
		span = 1
	}
	return centroid, span
}

// sweep advances every vertex one attraction step: toward the mean of up
// to warmSampleK sampled neighbors, damped by eta. Reads cur only, writes
// nxt only, so the partitioning of the vertex range cannot change any
// result bit.
func sweep(bud parallel.Budget, g *graph.CSR, cur, nxt *linalg.Dense, eta float64, seed uint64, t int) {
	n, p := cur.Rows, cur.Cols
	salt := splitmix(seed ^ (uint64(t)+1)*0xbf58476d1ce4e5b9)
	// Hoist the column slices: warmEligible caps p at 8.
	var cc, nc [8][]float64
	for j := 0; j < p; j++ {
		cc[j], nc[j] = cur.Col(j), nxt.Col(j)
	}
	body := func(lo, hi int) {
		cc, nc := cc, nc // on the stack, not read through the closure
		var pick [warmSampleK]int32
		for i := lo; i < hi; i++ {
			sample := g.Neighbors(int32(i))
			if d := len(sample); d == 0 {
				for j := 0; j < p; j++ {
					nc[j][i] = cc[j][i]
				}
				continue
			} else if d > warmSampleK {
				h := salt ^ uint64(i)*0x94d049bb133111eb
				for s := range pick {
					h = splitmix(h)
					pick[s] = sample[h%uint64(d)]
				}
				sample = pick[:]
			}
			// Two axes per walk of the sample, each mean in a register.
			k := float64(len(sample))
			inv := eta / k
			j := 0
			for ; j+2 <= p; j += 2 {
				c0, c1 := cc[j], cc[j+1]
				var m0, m1 float64
				for _, w := range sample {
					m0 += c0[w]
					m1 += c1[w]
				}
				x0, x1 := c0[i], c1[i]
				nc[j][i] = x0 + inv*(m0-k*x0)
				nc[j+1][i] = x1 + inv*(m1-k*x1)
			}
			if j < p {
				col := cc[j]
				var mean float64
				for _, w := range sample {
					mean += col[w]
				}
				c := col[i]
				nc[j][i] = c + inv*(mean-k*c)
			}
		}
	}
	if bud.Serial(n) {
		body(0, n)
		return
	}
	bud.ForBlock(n, body)
}

// correct restores the implicit-orthogonality invariants on x after a
// smoothing sweep: deflation against the trivial eigenvector, MGS
// D-orthogonalization of axis j against axes < j, and rescaling to the
// captured target D-norm; tot is Σ deg. Serial, so every sum is
// deterministic for free. Each elementwise step is deferred into the
// next pass that reads its axis: the deflation and each MGS subtraction
// of axis j into the pass computing its next projection or its norm
// (which also takes axis j+1's D-sum), and axis j's rescaling into axis
// j+1's projection onto it. An axis is walked once per reduction instead
// of once per step, and every value and sum is the one the step-by-step
// order gives.
func correct(deg []float64, x *linalg.Dense, target []float64, tot float64) {
	p, n := x.Cols, len(deg)
	sum := dSum(deg, x.Col(0)) // the D-sum of axis j, taken before axis j is written
	scale := 1.0               // axis j−1's pending rescale
	for j := 0; j < p; j++ {
		col := x.Col(j)[:n]
		// col's pending update: col − shift, then col − coef·src unless
		// src is nil. Subtracting a zero shift leaves every bit alone.
		shift := deflateShift(sum, tot)
		var src []float64
		var coef float64
		for l := 0; l < j; l++ {
			// ‖prev‖²_D and ⟨prev, col⟩_D share one pass.
			prev := x.Col(l)[:n]
			rescale := l == j-1 && scale != 1
			var pn, r float64
			for i, d := range deg {
				v := col[i] - shift
				if src != nil {
					v -= coef * src[i]
				}
				col[i] = v
				pv := prev[i]
				if rescale {
					pv *= scale
					prev[i] = pv
				}
				dp := d * pv
				pn += dp * pv
				r += dp * v
			}
			shift, src, coef = 0, nil, 0
			if !(pn <= 0) {
				src, coef = prev, r/pn
			}
		}
		var next []float64
		if j+1 < p {
			next = x.Col(j + 1)[:n]
		}
		var n2, nextSum float64
		for i, d := range deg {
			v := col[i] - shift
			if src != nil {
				v -= coef * src[i]
			}
			col[i] = v
			n2 += d * v * v
			if next != nil {
				nextSum += d * next[i]
			}
		}
		sum = nextSum
		scale = rescaleFactor(target[j], n2)
	}
	if scale != 1 {
		last := x.Col(p - 1)
		for i := range last {
			last[i] *= scale
		}
	}
}

// rescaleFactor is the factor that brings an axis of squared D-norm n2 to
// the target D-norm, or 1 (leave the axis alone) when either is not
// positive.
func rescaleFactor(target, n2 float64) float64 {
	if target <= 0 {
		return 1
	}
	nrm := math.Sqrt(n2)
	if nrm <= 0 {
		return 1
	}
	return target / nrm
}

// deflateShift is the D-weighted mean of an axis whose D-sum is sum: the
// shift that removes its component along the all-ones trivial
// eigenvector of Lu = µDu. It is zero when the total degree tot is not
// positive.
func deflateShift(sum, tot float64) float64 {
	if tot <= 0 {
		return 0
	}
	return sum / tot
}

// dSum is Σ deg_i·col_i in index order.
func dSum(deg, col []float64) float64 {
	col = col[:len(deg)]
	var s float64
	for i, d := range deg {
		s += d * col[i]
	}
	return s
}

// copyBlock copies src into dst under the run's worker budget.
func copyBlock(bud parallel.Budget, dst, src []float64) {
	if bud.Serial(len(dst)) {
		copy(dst, src)
		return
	}
	bud.ForBlock(len(dst), func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}
