package eigen

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/linalg"
)

// fuzzMatrix decodes a symmetric matrix of order ≤ 64 from fuzz bytes.
// data[0] picks the order and data[1] the family; the rest are entries,
// two bytes each (zeros once the bytes run out):
//
//	0: dense, entries in [-128, 128) scaled by 2^e for e in [-31, 31];
//	1: H·diag(λ)·H for a Householder reflector H built from the bytes and
//	   λ drawn from {0, 0, 1, 1, 1+2⁻⁴⁰, 1+2⁻⁴⁴, −3, 7}: repeated, zero and
//	   clustered eigenvalues;
//	2: sparse — about two entries in three are zero, so the Householder
//	   stage meets all-zero rows;
//	3: dense with one symmetric pair replaced by NaN, +Inf or −Inf.
//
// finite is false only for family 3.
func fuzzMatrix(data []byte) (a *linalg.Dense, finite bool) {
	if len(data) < 2 {
		return linalg.NewDense(0, 0), true
	}
	k, family := int(data[0])%65, data[1]%4
	data = data[2:]
	raw := func() int16 {
		if len(data) < 2 {
			return 0
		}
		x := int16(binary.LittleEndian.Uint16(data))
		data = data[2:]
		return x
	}
	a = linalg.NewDense(k, k)
	set := func(i, j int, x float64) {
		a.Set(i, j, x)
		a.Set(j, i, x)
	}
	switch family {
	case 1:
		palette := [8]float64{0, 0, 1, 1, 1 + 0x1p-40, 1 + 0x1p-44, -3, 7}
		lambda := make([]float64, k)
		u := make([]float64, k)
		for i := range lambda {
			x := raw()
			lambda[i] = palette[x&7]
			u[i] = float64(x >> 3)
		}
		uu := linalg.Dot(u, u)
		h := linalg.NewDense(k, k)
		for i := 0; i < k; i++ {
			h.Set(i, i, 1)
			for j := 0; j <= i && uu > 0; j++ {
				x := h.At(i, j) - 2*u[i]*u[j]/uu
				h.Set(i, j, x)
				h.Set(j, i, x)
			}
		}
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				var x float64
				for l := 0; l < k; l++ {
					x += h.At(i, l) * lambda[l] * h.At(l, j)
				}
				set(i, j, x)
			}
		}
	default:
		scale := math.Ldexp(1, int(raw()%32))
		for i := 0; i < k; i++ {
			for j := i; j < k; j++ {
				x := raw()
				if family == 2 && x%3 != 0 {
					x = 0
				}
				set(i, j, float64(x)/256*scale)
			}
		}
		if family == 3 && k > 0 {
			bad := [3]float64{math.NaN(), math.Inf(1), math.Inf(-1)}
			set(int(uint16(raw()))%k, int(uint16(raw()))%k, bad[uint16(raw())%3])
			return a, false
		}
	}
	return a, true
}

// FuzzSymEig: the solver never panics, rejects non-finite input, and on
// every finite symmetric matrix returns ascending eigenvalues with
// orthonormal, sign-fixed eigenvectors and residuals ‖Av − λv‖ within
// 1e-10·‖A‖.
func FuzzSymEig(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 3, 0})
	f.Add([]byte{8, 0, 1, 0, 2, 1, 3, 4, 9, 9, 7, 200, 13, 5})
	f.Add([]byte{64, 1, 77, 31, 200, 9, 4, 4, 5, 6, 250, 250, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{33, 1})
	f.Add([]byte{20, 2, 1, 0, 3, 0, 6, 0, 9, 0, 12, 0, 4, 0})
	f.Add([]byte{5, 3, 9, 9, 9, 9, 2, 0, 3, 0, 1, 0})
	// 48x48, a constant first row and column plus one diagonal entry: a
	// rank-three matrix whose tridiagonal form is subnormal in most
	// entries. A QL tolerance that was not relative to ‖T‖ rotated those
	// and lost orthogonality (6e-10).
	f.Add(bytes.Repeat([]byte("0"), 102))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, finite := fuzzMatrix(data)
		vals, vecs, err := SymEig(a)
		if !finite {
			if err == nil {
				t.Fatal("a non-finite entry was accepted")
			}
			return
		}
		if err != nil {
			t.Fatalf("%dx%d: %v", a.Rows, a.Cols, err)
		}
		k := a.Rows
		norm := math.Sqrt(linalg.Dot(a.Data, a.Data))
		av := make([]float64, k)
		for j := 0; j < k; j++ {
			if j > 0 && vals[j] < vals[j-1] {
				t.Fatalf("eigenvalues not ascending at %d: %v", j, vals)
			}
			v := vecs.Col(j)
			if !signRuleHolds(v) {
				t.Fatalf("eigenvector %d breaks the sign rule: %v", j, v)
			}
			for i := range av {
				av[i] = -vals[j] * v[i]
			}
			for l := 0; l < k; l++ {
				linalg.Axpy(v[l], a.Col(l), av)
			}
			if r := math.Sqrt(linalg.Dot(av, av)); r > 1e-10*norm {
				t.Fatalf("residual of pair %d is %g, ‖A‖ = %g", j, r, norm)
			}
			for i := 0; i <= j; i++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if d := linalg.Dot(vecs.Col(i), v) - want; math.Abs(d) > 1e-12*float64(k) {
					t.Fatalf("VᵀV − I is %g at (%d,%d)", d, i, j)
				}
			}
		}
	})
}
