package quality

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/parallel"
)

// denseAngles is the reference: Gram–Schmidt in the D-inner product on
// each span, then the singular values of the 2×2 cross product from the
// closed form of its normal matrix's eigenvalues.
func denseAngles(x, y *linalg.Dense, d []float64) [2]float64 {
	ortho := func(a *linalg.Dense) [2][]float64 {
		var q [2][]float64
		for j := 0; j < 2; j++ {
			v := append([]float64(nil), a.Col(j)...)
			for l := 0; l < j; l++ {
				c := linalg.DDot(q[l], d, v)
				for i := range v {
					v[i] -= c * q[l][i]
				}
			}
			nrm := math.Sqrt(linalg.DDot(v, d, v))
			for i := range v {
				v[i] /= nrm
			}
			q[j] = v
		}
		return q
	}
	qx, qy := ortho(x), ortho(y)
	var c [2][2]float64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			c[i][j] = linalg.DDot(qx[i], d, qy[j])
		}
	}
	// Eigenvalues of CᵀC = [[a, b], [b, e]].
	a := c[0][0]*c[0][0] + c[1][0]*c[1][0]
	e := c[0][1]*c[0][1] + c[1][1]*c[1][1]
	b := c[0][0]*c[0][1] + c[1][0]*c[1][1]
	mid, rad := (a+e)/2, math.Hypot((a-e)/2, b)
	hi, lo := math.Min(mid+rad, 1), math.Max(mid-rad, 0)
	return [2]float64{math.Acos(math.Sqrt(hi)), math.Acos(math.Sqrt(lo))}
}

func randomDense(rng *rand.Rand, n, p int) *linalg.Dense {
	m := linalg.NewDense(n, p)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestPrincipalAnglesMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 200
	d := make([]float64, n)
	for i := range d {
		d[i] = float64(1 + rng.Intn(9))
	}
	x := randomDense(rng, n, 2)
	// y shares x's first direction, plus noise, so the angles spread.
	y := randomDense(rng, n, 2)
	for i := 0; i < n; i++ {
		y.Set(i, 0, x.At(i, 0)+0.3*y.At(i, 0))
	}
	for _, dd := range [][]float64{d, nil} {
		w := dd
		if w == nil {
			w = make([]float64, n)
			linalg.Fill(w, 1)
		}
		got, err := PrincipalAngles(x, y, dd)
		if err != nil {
			t.Fatal(err)
		}
		want := denseAngles(x, y, w)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("angles %v, dense %v", got, want)
			}
		}
	}
}

func TestPrincipalAnglesProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 120
	d := make([]float64, n)
	for i := range d {
		d[i] = 0.5 + rng.Float64()
	}
	x := randomDense(rng, n, 2)
	if a, err := PrincipalAngles(x, x, d); err != nil || a[1] > 1e-7 {
		t.Fatalf("X against itself: %v %v, want 0", a, err)
	}
	// Invariance under X → X·R for an invertible R.
	r := linalg.NewDense(2, 2)
	r.Data = []float64{2, -1, 0.5, 3}
	xr := linalg.MulSmallBudget(parallel.FixedBudget(1), x, r, nil)
	y := randomDense(rng, n, 2)
	a1, err1 := PrincipalAngles(x, y, d)
	a2, err2 := PrincipalAngles(xr, y, d)
	if err1 != nil || err2 != nil || math.Abs(a1[0]-a2[0]) > 1e-12 || math.Abs(a1[1]-a2[1]) > 1e-12 {
		t.Fatalf("X·R changed the angles: %v vs %v (%v, %v)", a1, a2, err1, err2)
	}
	// Spans on disjoint supports are D-orthogonal: both angles π/2.
	lo, hi := linalg.NewDense(n, 2), linalg.NewDense(n, 2)
	for i := 0; i < n/2; i++ {
		lo.Set(i, 0, x.At(i, 0))
		lo.Set(i, 1, x.At(i, 1))
		hi.Set(i+n/2, 0, x.At(i+n/2, 0))
		hi.Set(i+n/2, 1, x.At(i+n/2, 1))
	}
	if a, err := PrincipalAngles(lo, hi, d); err != nil || a[0] != math.Pi/2 || a[1] != math.Pi/2 {
		t.Fatalf("orthogonal spans: %v %v, want π/2", a, err)
	}
	if _, err := PrincipalAngles(x, linalg.NewDense(n, 2), d); err == nil {
		t.Fatal("a rank-deficient span was accepted")
	}
}
