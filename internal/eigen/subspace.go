package eigen

import (
	"math"

	"repro/internal/graph"
	"repro/internal/linalg"
)

// SubspaceOptions configures block subspace iteration.
type SubspaceOptions struct {
	MaxIters int     // outer iterations (default 500)
	Tol      float64 // max residual ‖Wx − λx‖_D for convergence (default 1e-6)
	Seed     uint64
	// Init, when non-nil, seeds the block with its first k columns — the
	// §4.5.3 use case: "ParHDE could be used as a preprocessing step for
	// modern eigensolvers". nil starts from random vectors.
	Init *linalg.Dense
}

// SubspaceResult reports the computed invariant subspace.
type SubspaceResult struct {
	Vectors    *linalg.Dense // n×k D-orthonormal Ritz vectors
	Values     []float64     // Ritz values of D⁻¹A, descending
	Iterations int
	Residual   float64 // max over vectors at exit
}

// SubspaceIterate computes the k dominant non-degenerate eigenpairs of the
// transition matrix D⁻¹A by orthogonal (block power) iteration with
// Rayleigh-Ritz extraction — the same family as the LOBPCG solver the
// paper points at, minus preconditioning. All k vectors advance together
// through the shifted operator (I + D⁻¹A)/2, are deflated against the
// trivial eigenvector, D-orthonormalized, and rotated to Ritz vectors
// every iteration. Seeding the block with an HDE layout (Init) cuts the
// iteration count dramatically versus a random start; the refine/seeding
// experiment quantifies it.
func SubspaceIterate(g *graph.CSR, k int, opt SubspaceOptions) SubspaceResult {
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

	// Initialize the block.
	x := linalg.NewDense(n, k)
	if opt.Init != nil {
		for j := 0; j < k && j < opt.Init.Cols; j++ {
			copy(x.Col(j), opt.Init.Col(j))
		}
	}
	state := opt.Seed*0x9e3779b97f4a7c15 + 12345
	for j := 0; j < k; j++ {
		col := x.Col(j)
		allZero := true
		for _, v := range col {
			if v != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			for i := range col {
				state = state*2862933555777941757 + 3037000493
				col[i] = float64(state>>11)/(1<<53) - 0.5
			}
		}
	}
	dOrthonormalizeBlock(x, ones, deg)

	w := linalg.NewDense(n, k)
	res := SubspaceResult{}
	for it := 0; it < opt.MaxIters; it++ {
		res.Iterations = it + 1
		// W = (X + D⁻¹A·X)/2, deflated.
		for j := 0; j < k; j++ {
			linalg.WalkMulVec(g, deg, x.Col(j), w.Col(j))
			linalg.Axpy(1, x.Col(j), w.Col(j))
			linalg.Scale(0.5, w.Col(j))
			c := linalg.DDot(ones, deg, w.Col(j))
			linalg.Axpy(-c, ones, w.Col(j))
		}
		// Rayleigh-Ritz on span(W): D-orthonormalize, form the projected
		// operator H = WᵀD·Op(W), rotate to its eigenbasis.
		dOrthonormalizeBlock(w, ones, deg)
		h := linalg.NewDense(k, k)
		tmp := make([]float64, n)
		for j := 0; j < k; j++ {
			linalg.WalkMulVec(g, deg, w.Col(j), tmp)
			for i := 0; i < k; i++ {
				h.Set(i, j, linalg.DDot(w.Col(i), deg, tmp))
			}
		}
		// Solve (the solver symmetrizes the roundoff) and rotate, ordering
		// Ritz pairs by descending eigenvalue.
		vals, vecs, err := TopK(h, k)
		if err != nil {
			break
		}
		res.Values = vals
		rot := linalg.NewDense(n, k)
		for j := 0; j < k; j++ {
			dst := rot.Col(j)
			for c := 0; c < k; c++ {
				f := vecs.At(c, j)
				if f == 0 {
					continue
				}
				col := w.Col(c)
				for r := 0; r < n; r++ {
					dst[r] += f * col[r]
				}
			}
		}
		x = rot
		// Residuals.
		worst := 0.0
		for j := 0; j < k; j++ {
			linalg.WalkMulVec(g, deg, x.Col(j), tmp)
			linalg.Axpy(-res.Values[j], x.Col(j), tmp)
			r := math.Sqrt(linalg.DDot(tmp, deg, tmp))
			if r > worst {
				worst = r
			}
		}
		res.Residual = worst
		if worst < opt.Tol {
			break
		}
	}
	res.Vectors = x
	return res
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
