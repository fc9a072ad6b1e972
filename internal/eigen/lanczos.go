package eigen

import (
	"math"

	"repro/internal/graph"
	"repro/internal/linalg"
)

// LanczosOptions configures the Lanczos solver.
type LanczosOptions struct {
	// MaxDim bounds the Krylov subspace dimension (default min(n, 200)).
	MaxDim int
	// Tol is the Ritz-residual convergence threshold (default 1e-8).
	Tol  float64
	Seed uint64
}

// LanczosResult reports the computed dominant eigenpairs.
type LanczosResult struct {
	Values     []float64     // Ritz values of D⁻¹A (descending, trivial pair deflated)
	Vectors    *linalg.Dense // n×k Ritz vectors, D-orthonormal
	Iterations int           // Lanczos steps performed
	Residual   float64       // max Ritz residual at exit
}

// Lanczos computes the k dominant non-degenerate eigenpairs of the
// transition matrix D⁻¹A with the Lanczos process on the symmetric
// similar operator D^{1/2}(D⁻¹A)D^{-1/2} expressed through D-inner
// products, with full reorthogonalization (robust, and cheap at the
// subspace sizes drawing needs). Lanczos converges in far fewer operator
// applications than power iteration, making it the strongest full-graph
// spectral baseline for Figure 1 and the natural "modern eigensolver"
// target of §4.5.3.
func Lanczos(g *graph.CSR, k int, opt LanczosOptions) LanczosResult {
	n := g.NumV
	if opt.MaxDim <= 0 {
		opt.MaxDim = 200
	}
	if opt.MaxDim > n {
		opt.MaxDim = n
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	deg := g.WeightedDegrees()

	ones := make([]float64, n)
	linalg.Fill(ones, 1)
	dNormalize(ones, deg)

	// Krylov basis (D-orthonormal), tridiagonal coefficients.
	basis := make([][]float64, 0, opt.MaxDim)
	var alphas, betas []float64

	// Start vector: random, deflated against the trivial eigenvector.
	state := opt.Seed*0x9e3779b97f4a7c15 + 99
	v := make([]float64, n)
	for i := range v {
		state = state*2862933555777941757 + 3037000493
		v[i] = float64(state>>11)/(1<<53) - 0.5
	}
	dProjectOut(v, [][]float64{ones}, deg)
	dNormalize(v, deg)
	basis = append(basis, append([]float64(nil), v...))

	w := make([]float64, n)
	res := LanczosResult{}
	for j := 0; j < opt.MaxDim; j++ {
		res.Iterations = j + 1
		// w = Op(v_j): the walk operator under the D-inner product is
		// self-adjoint, so plain Lanczos applies.
		linalg.WalkMulVec(g, deg, basis[j], w)
		// Deflate the trivial direction (eigenvalue 1 would dominate).
		c := linalg.DDot(ones, deg, w)
		linalg.Axpy(-c, ones, w)
		alpha := linalg.DDot(basis[j], deg, w)
		alphas = append(alphas, alpha)
		linalg.Axpy(-alpha, basis[j], w)
		if j > 0 {
			linalg.Axpy(-betas[j-1], basis[j-1], w)
		}
		// Full reorthogonalization against the entire basis.
		for _, b := range basis {
			cb := linalg.DDot(b, deg, w)
			if cb != 0 {
				linalg.Axpy(-cb, b, w)
			}
		}
		beta := math.Sqrt(linalg.DDot(w, deg, w))
		// Solve the tridiagonal Ritz problem every few steps to check
		// convergence of the wanted pairs.
		if (j+1)%5 == 0 || beta < 1e-14 || j == opt.MaxDim-1 {
			vals, vecs, err := tridiagEig(alphas, betas)
			if err == nil && len(vals) >= k {
				worst := 0.0
				for t := 0; t < k; t++ {
					idx := len(vals) - 1 - t // descending
					// Ritz residual: |beta * last component|.
					r := math.Abs(beta * vecs.At(len(alphas)-1, idx))
					if r > worst {
						worst = r
					}
				}
				res.Residual = worst
				if worst < opt.Tol || beta < 1e-14 {
					res.Values, res.Vectors = ritzVectors(basis, vals, vecs, k, n)
					return res
				}
			}
		}
		if beta < 1e-14 {
			break
		}
		betas = append(betas, beta)
		linalg.Scale(1/beta, w)
		basis = append(basis, append([]float64(nil), w...))
	}
	vals, vecs, err := tridiagEig(alphas, betas)
	if err != nil || len(vals) == 0 {
		res.Vectors = linalg.NewDense(n, 0)
		return res
	}
	if k > len(vals) {
		k = len(vals)
	}
	res.Values, res.Vectors = ritzVectors(basis, vals, vecs, k, n)
	return res
}

// ritzVectors assembles the top-k Ritz vectors y = V·s from the Lanczos
// basis and the tridiagonal eigenvectors.
func ritzVectors(basis [][]float64, vals []float64, vecs *linalg.Dense, k, n int) ([]float64, *linalg.Dense) {
	m := len(vals)
	if k > m {
		k = m
	}
	outVals := make([]float64, k)
	out := linalg.NewDense(n, k)
	for t := 0; t < k; t++ {
		idx := m - 1 - t
		outVals[t] = vals[idx]
		dst := out.Col(t)
		for c := 0; c < m && c < len(basis); c++ {
			f := vecs.At(c, idx)
			if f == 0 {
				continue
			}
			b := basis[c]
			for r := 0; r < n; r++ {
				dst[r] += f * b[r]
			}
		}
	}
	return outVals, out
}

// tridiagEig solves the symmetric tridiagonal eigenproblem with the dense
// Householder + QL solver (subspace dimensions here are ≤ a few hundred).
func tridiagEig(alphas, betas []float64) ([]float64, *linalg.Dense, error) {
	m := len(alphas)
	t := linalg.NewDense(m, m)
	for i := 0; i < m; i++ {
		t.Set(i, i, alphas[i])
		if i < len(betas) && i+1 < m {
			t.Set(i, i+1, betas[i])
			t.Set(i+1, i, betas[i])
		}
	}
	return SymEig(t)
}
