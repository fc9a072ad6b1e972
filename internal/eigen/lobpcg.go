package eigen

import (
	"math"

	"repro/internal/graph"
	"repro/internal/linalg"
)

// LOBPCGOptions configures the LOBPCG solver.
type LOBPCGOptions struct {
	MaxIters int     // outer iterations (default 500)
	Tol      float64 // max residual D-norm for convergence (default 1e-6)
	Seed     uint64
	// Init seeds the block with its first k columns (the §4.5.3 use:
	// "ParHDE could be used as a preprocessing step for modern
	// eigensolvers such as LOBPCG [29]"). nil starts randomly.
	Init *linalg.Dense
}

// LOBPCGResult reports the computed eigenpairs.
type LOBPCGResult struct {
	Values     []float64     // eigenvalues of D⁻¹A, descending
	Vectors    *linalg.Dense // n×k, D-orthonormal
	Iterations int
	Residual   float64
}

// LOBPCG computes the k dominant non-degenerate eigenpairs of the
// transition matrix D⁻¹A with the Locally Optimal Block Preconditioned
// Conjugate Gradient method of Knyazev — the exact solver the paper's
// §4.5.3 proposes seeding with ParHDE. Each iteration performs a
// Rayleigh-Ritz extraction over the 3k-dimensional space
// span{X, R, P}: the current block, its residuals, and the previous
// search directions. No preconditioner is applied (T = I), which is the
// "locally optimal block CG" special case; the recurrence still converges
// far faster than block power iteration on clustered spectra.
//
// The operator is B = (I + D⁻¹A)/2 under the D-inner product (self-
// adjoint, spectrum in [0, 1]), with the trivial eigenvector deflated.
// Reported Values are mapped back to eigenvalues of D⁻¹A (λ = 2µ − 1).
func LOBPCG(g *graph.CSR, k int, opt LOBPCGOptions) LOBPCGResult {
	if opt.MaxIters <= 0 {
		opt.MaxIters = 500
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-6
	}
	n := g.NumV
	deg := g.WeightedDegrees()
	ones := make([]float64, n)
	linalg.Fill(ones, 1)
	dNormalize(ones, deg)

	apply := func(dst, src []float64) {
		linalg.WalkMulVec(g, deg, src, dst)
		linalg.Axpy(1, src, dst)
		linalg.Scale(0.5, dst)
		c := linalg.DDot(ones, deg, dst)
		linalg.Axpy(-c, ones, dst)
	}

	// Current block X, previous directions P, residuals R.
	x := linalg.NewDense(n, k)
	if opt.Init != nil {
		for j := 0; j < k && j < opt.Init.Cols; j++ {
			copy(x.Col(j), opt.Init.Col(j))
		}
	}
	state := opt.Seed*0x9e3779b97f4a7c15 + 7
	for j := 0; j < k; j++ {
		col := x.Col(j)
		zero := true
		for _, v := range col {
			if v != 0 {
				zero = false
				break
			}
		}
		if zero {
			for i := range col {
				state = state*2862933555777941757 + 3037000493
				col[i] = float64(state>>11)/(1<<53) - 0.5
			}
		}
	}
	dOrthonormalizeBlock(x, ones, deg)

	ax := linalg.NewDense(n, k)
	for j := 0; j < k; j++ {
		apply(ax.Col(j), x.Col(j))
	}
	var p *linalg.Dense // previous directions (nil on first iteration)
	res := LOBPCGResult{Values: make([]float64, k)}
	lambda := make([]float64, k)

	for it := 0; it < opt.MaxIters; it++ {
		res.Iterations = it + 1
		// Rayleigh quotients and residuals R = A·X − X·Λ.
		r := linalg.NewDense(n, k)
		worst := 0.0
		for j := 0; j < k; j++ {
			lambda[j] = linalg.DDot(x.Col(j), deg, ax.Col(j))
			linalg.CopyVec(r.Col(j), ax.Col(j))
			linalg.Axpy(-lambda[j], x.Col(j), r.Col(j))
			rn := math.Sqrt(linalg.DDot(r.Col(j), deg, r.Col(j)))
			if rn > worst {
				worst = rn
			}
		}
		res.Residual = worst
		if worst < opt.Tol {
			break
		}
		// Assemble the trial space [X | R | P], D-orthonormalized.
		cols := 2 * k
		if p != nil {
			cols = 3 * k
		}
		v := linalg.NewDense(n, cols)
		for j := 0; j < k; j++ {
			copy(v.Col(j), x.Col(j))
			copy(v.Col(k+j), r.Col(j))
			if p != nil {
				copy(v.Col(2*k+j), p.Col(j))
			}
		}
		dOrthonormalizeBlock(v, ones, deg)
		// Drop near-null columns produced by orthogonalization (e.g. P
		// nearly parallel to X late in convergence).
		keep := make([]int, 0, cols)
		for j := 0; j < cols; j++ {
			if linalg.DDot(v.Col(j), deg, v.Col(j)) > 0.5 {
				keep = append(keep, j)
			}
		}
		if len(keep) < k {
			break
		}
		if len(keep) < cols {
			v = v.DropColumns(keep)
			cols = len(keep)
		}
		// Projected operator H = Vᵀ D (A·V) and Rayleigh-Ritz.
		av := linalg.NewDense(n, cols)
		for j := 0; j < cols; j++ {
			apply(av.Col(j), v.Col(j))
		}
		h := linalg.NewDense(cols, cols)
		for j := 0; j < cols; j++ {
			for i := 0; i < cols; i++ {
				h.Set(i, j, linalg.DDot(v.Col(i), deg, av.Col(j)))
			}
		}
		// The Ritz values are recomputed from Rayleigh quotients next round;
		// the solver symmetrizes h's roundoff.
		_, vecs, err := TopK(h, k)
		if err != nil {
			break
		}
		// New block: top-k Ritz vectors; new P: the R/P-component of the
		// update (Ritz vector minus its X-expansion), per Knyazev.
		newX := linalg.NewDense(n, k)
		newAX := linalg.NewDense(n, k)
		newP := linalg.NewDense(n, k)
		for t := 0; t < k; t++ {
			xd := newX.Col(t)
			axd := newAX.Col(t)
			pd := newP.Col(t)
			for c := 0; c < cols; c++ {
				f := vecs.At(c, t)
				if f == 0 {
					continue
				}
				vc := v.Col(c)
				avc := av.Col(c)
				for rix := 0; rix < n; rix++ {
					xd[rix] += f * vc[rix]
					axd[rix] += f * avc[rix]
				}
				if c >= k { // the R/P components form the next direction
					for rix := 0; rix < n; rix++ {
						pd[rix] += f * vc[rix]
					}
				}
			}
		}
		x, ax, p = newX, newAX, newP
	}
	// Final Rayleigh quotients, mapped back to D⁻¹A's spectrum.
	dOrthonormalizeBlock(x, ones, deg)
	tmp := make([]float64, n)
	for j := 0; j < k; j++ {
		linalg.WalkMulVec(g, deg, x.Col(j), tmp)
		res.Values[j] = linalg.DDot(x.Col(j), deg, tmp)
	}
	res.Vectors = x
	return res
}

// dNormalize scales x to unit D-norm.
func dNormalize(x, d []float64) {
	nrm := math.Sqrt(linalg.DDot(x, d, x))
	if nrm > 0 {
		linalg.Scale(1/nrm, x)
	}
}

// dOrthonormalizeBlock makes the columns of x D-orthonormal and
// D-orthogonal to the (already D-normalized) deflation vector.
func dOrthonormalizeBlock(x *linalg.Dense, deflate []float64, deg []float64) {
	for j := 0; j < x.Cols; j++ {
		col := x.Col(j)
		c := linalg.DDot(deflate, deg, col)
		linalg.Axpy(-c, deflate, col)
		for i := 0; i < j; i++ {
			prev := x.Col(i)
			linalg.Axpy(-linalg.DDot(prev, deg, col), prev, col)
		}
		nrm := math.Sqrt(linalg.DDot(col, deg, col))
		if nrm > 1e-300 {
			linalg.Scale(1/nrm, col)
		}
	}
}
