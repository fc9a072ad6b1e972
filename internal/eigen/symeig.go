// Package eigen provides the two eigensolvers the reproduction needs: one
// dense symmetric solver for the small projected problem at the end of the
// HDE pipeline — Householder tridiagonalization, then implicit QL: the
// method of the Eigen library solver the paper uses there — and LOBPCG
// over the transition matrix D⁻¹A, the full-graph spectral reference of
// Figure 1 and the solver the §4.5.3 preprocessing extension seeds.
package eigen

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// maxQLIters is EISPACK's bound on the QL sweeps spent on one eigenvalue;
// needing more is an error. It is a variable so that a test can make it
// bite.
var maxQLIters = 30

// Scratch is the dense solver's storage, plus a k×k matrix and a length-k
// vector a caller may build its problem in (Input). The zero value is
// empty, and a solver passed a nil *Scratch uses private storage. Results
// computed in a Scratch alias it until its next use.
type Scratch struct {
	v, d, e   []float64    // eigenvectors (column-major), diagonal, off-diagonal
	in, w     []float64    // Input's matrix and vector
	vecs, inM linalg.Dense // headers handed out without allocating
}

// Ensure grows the scratch to solve k×k problems; sufficient buffers are
// kept.
func (sc *Scratch) Ensure(k int) {
	sc.v, sc.in = grow(sc.v, k*k), grow(sc.in, k*k)
	sc.d, sc.e, sc.w = grow(sc.d, k), grow(sc.e, k), grow(sc.w, k)
}

// Input returns a k×k matrix and a length-k vector in the scratch for a
// caller to build its problem in. A solve only reads the matrix and never
// touches the vector.
func (sc *Scratch) Input(k int) (*linalg.Dense, []float64) {
	sc.Ensure(k)
	sc.inM = linalg.Dense{Rows: k, Cols: k, Data: sc.in}
	return &sc.inM, sc.w
}

func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// SymEig computes the full eigendecomposition of the symmetric matrix a
// (k×k, dense). It returns the eigenvalues in ascending order and the
// matching eigenvectors as the columns of a k×k matrix, each signed so
// that its largest-magnitude entry is positive (the lowest index wins a
// tie), so a sign does not depend on the solver's rotation order. a is not
// modified. a may be asymmetric only within roundoff (1e-8 relative); the
// solve reads its upper triangle. A NaN or ±Inf entry is an error.
func SymEig(a *linalg.Dense) (vals []float64, vecs *linalg.Dense, err error) {
	return symEig(a, &Scratch{})
}

// BottomK returns the k eigenvectors with smallest eigenvalues as an s×k
// matrix, with their eigenvalues. For Z = SᵀLS (a projected Laplacian
// with the degenerate direction removed), these are the drawing axes: the
// minimizers of the Hall energy within the subspace.
func BottomK(a *linalg.Dense, k int) ([]float64, *linalg.Dense, error) {
	return BottomKScratch(a, k, nil)
}

// BottomKScratch is BottomK computed in sc (nil means private storage).
// Both results alias sc.
func BottomKScratch(a *linalg.Dense, k int, sc *Scratch) ([]float64, *linalg.Dense, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	vals, vecs, err := symEig(a, sc)
	if err != nil {
		return nil, nil, err
	}
	// The eigenvectors are stored column-major in ascending order, so the
	// bottom k are a prefix of the storage.
	k = min(k, len(vals))
	vecs.Cols, vecs.Data = k, vecs.Data[:vecs.Rows*k]
	return vals[:k], vecs, nil
}

// TopK returns the k eigenvectors with largest eigenvalues as an s×k
// matrix, with their eigenvalues (descending). PHDE and PivotMDS use the
// top two eigenvectors of the PCA covariance CᵀC.
func TopK(a *linalg.Dense, k int) ([]float64, *linalg.Dense, error) {
	vals, vecs, err := SymEig(a)
	if err != nil {
		return nil, nil, err
	}
	s := len(vals)
	k = min(k, s)
	outVals := make([]float64, k)
	out := linalg.NewDense(a.Rows, k)
	for j := 0; j < k; j++ {
		outVals[j] = vals[s-1-j]
		copy(out.Col(j), vecs.Col(s-1-j))
	}
	return outVals, out, nil
}

// symEig validates a, copies its upper triangle into sc as a symmetric
// matrix, and solves it with the EISPACK routines tred2 and tql2 as JAMA
// transcribes them, on column-major storage so that every inner loop runs
// down a column.
func symEig(a *linalg.Dense, sc *Scratch) ([]float64, *linalg.Dense, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, nil, fmt.Errorf("eigen: matrix is %dx%d, want square", a.Rows, a.Cols)
	}
	var scale float64
	for i, x := range a.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, nil, fmt.Errorf("eigen: entry (%d,%d) is %g", i%n, i/n, x)
		}
		scale = max(scale, math.Abs(x))
	}
	sc.Ensure(n)
	v, d, e := sc.v, sc.d, sc.e
	copy(v, a.Data)
	// Callers build a as SᵀLS, which may be symmetric only up to
	// floating-point noise: reject an asymmetry above a small relative
	// tolerance, then solve the upper triangle, copied onto the lower one
	// (the one tred2 reads), so the result does not depend on the lower
	// triangle's rounding.
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			lo, up := v[j*n+i], v[i*n+j]
			if math.Abs(lo-up) > 1e-8*math.Max(scale, 1) {
				return nil, nil, fmt.Errorf("eigen: matrix asymmetric at (%d,%d): |%g - %g|", j, i, up, lo)
			}
			v[j*n+i] = up
		}
	}
	sc.vecs = linalg.Dense{Rows: n, Cols: n, Data: v}
	if n > 0 {
		tred2(v, d, e, n)
		if err := tql2(v, d, e, n); err != nil {
			return nil, nil, err
		}
	}
	return d, &sc.vecs, nil
}

// tred2 reduces the symmetric matrix v (only its lower triangle is read)
// to tridiagonal form by Householder similarity transformations, leaving
// the diagonal in d, the subdiagonal in e[1:], and the accumulated
// orthogonal transformation in v.
func tred2(v, d, e []float64, n int) {
	for j := 0; j < n; j++ {
		d[j] = v[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		var scale, h float64
		for _, x := range d[:i] {
			scale += math.Abs(x)
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = v[j*n+i-1]
				v[j*n+i], v[i*n+j] = 0, 0
			}
			d[i] = 0
			continue
		}
		// The Householder vector, scaled against under- and overflow.
		for k := 0; k < i; k++ {
			d[k] /= scale
			h += d[k] * d[k]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		clear(e[:i])
		// Apply the similarity transformation to the remaining columns.
		for j := 0; j < i; j++ {
			col := v[j*n : j*n+i]
			f = d[j]
			v[i*n+j] = f
			g = e[j] + col[j]*f
			for k := j + 1; k < i; k++ {
				g += col[k] * d[k]
				e[k] += col[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			col := v[j*n : j*n+i]
			f, g = d[j], e[j]
			for k := j; k < i; k++ {
				col[k] -= f*e[k] + g*d[k]
			}
			d[j] = col[i-1]
			v[j*n+i] = 0
		}
		d[i] = h
	}
	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		v[i*n+n-1] = v[i*n+i]
		v[i*n+i] = 1
		next := v[(i+1)*n : (i+1)*n+i+1]
		if h := d[i+1]; h != 0 {
			for k := range next {
				d[k] = next[k] / h
			}
			for j := 0; j <= i; j++ {
				col := v[j*n : j*n+i+1]
				g := linalg.Dot(next, col)
				for k := range col {
					col[k] -= g * d[k]
				}
			}
		}
		clear(next)
	}
	for j := 0; j < n; j++ {
		d[j], v[j*n+n-1] = v[j*n+n-1], 0
	}
	v[n*n-1] = 1
	e[0] = 0
}

// tql2 diagonalizes the tridiagonal matrix tred2 left in d and e with the
// implicit QL method, accumulating the rotations into v; then it sorts the
// eigenpairs ascending and applies the sign rule.
func tql2(v, d, e []float64, n int) error {
	copy(e, e[1:])
	e[n-1] = 0
	// An off-diagonal element is negligible below eps·‖T‖. EISPACK grows
	// tst1 with l instead; that iterates on blocks of subnormal entries
	// (left by a rank-deficient matrix) whose rotations are not orthogonal.
	const eps = 0x1p-52
	var f, tst1 float64
	for i := range d {
		tst1 = max(tst1, math.Abs(d[i])+math.Abs(e[i]))
	}
	for l := 0; l < n; l++ {
		// Find a negligible subdiagonal element. e[n-1] is zero, so on
		// finite values the search stops by n-1 anyway; the bound keeps a
		// NaN from walking past the end.
		m := l
		for m < n-1 && !(math.Abs(e[m]) <= eps*tst1) {
			m++
		}
		for iter := 0; m > l; iter++ {
			if iter == maxQLIters {
				return fmt.Errorf("eigen: eigenvalue %d not converged after %d QL iterations", l, maxQLIters)
			}
			// Implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h
			// Implicit QL transformation.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			var s, s2 float64
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				s = e[i] / r
				c = p / r
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				vi, vi1 := v[i*n:(i+1)*n], v[(i+1)*n:(i+2)*n]
				for k := range vi {
					h = vi1[k]
					vi1[k] = s*vi[k] + c*h
					vi[k] = c*vi[k] - s*h
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
			if !(math.Abs(e[l]) > eps*tst1) {
				break
			}
		}
		d[l] += f
		e[l] = 0
	}
	for i := 0; i < n; i++ {
		// Selection sort; a column moves with its eigenvalue.
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] < d[k] {
				k = j
			}
		}
		vi, vk := v[i*n:(i+1)*n], v[k*n:(k+1)*n]
		if k != i {
			d[k], d[i] = d[i], d[k]
			for j := range vi {
				vi[j], vk[j] = vk[j], vi[j]
			}
		}
		if math.IsNaN(d[i]) || math.IsInf(d[i], 0) {
			return fmt.Errorf("eigen: eigenvalue %d overflowed to %g", i, d[i])
		}
		// Sign rule: the first largest-magnitude entry is positive.
		big := 0
		for j, x := range vi {
			if math.Abs(x) > math.Abs(vi[big]) {
				big = j
			}
		}
		if vi[big] < 0 {
			linalg.Scale(-1, vi)
		}
	}
	return nil
}
