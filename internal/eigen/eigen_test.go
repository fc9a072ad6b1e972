package eigen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

func TestSymEigDiagonal(t *testing.T) {
	a := linalg.NewDense(3, 3)
	a.Set(0, 0, 5)
	a.Set(1, 1, -2)
	a.Set(2, 2, 1)
	vals, vecs, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-2, 1, 5}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Fatalf("vals = %v", vals)
		}
	}
	// Eigenvector of -2 is e1 (up to sign).
	if math.Abs(math.Abs(vecs.At(1, 0))-1) > 1e-12 {
		t.Fatalf("vecs col 0 = %v", vecs.Col(0))
	}
}

func TestSymEigKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := linalg.NewDense(2, 2)
	copy(a.Data, []float64{2, 1, 1, 2})
	vals, _, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-12 || math.Abs(vals[1]-3) > 1e-12 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestSymEigRejectsNonSquareAndAsymmetric(t *testing.T) {
	if _, _, err := SymEig(linalg.NewDense(2, 3)); err == nil {
		t.Fatal("non-square accepted")
	}
	a := linalg.NewDense(2, 2)
	copy(a.Data, []float64{1, 5, -5, 1})
	if _, _, err := SymEig(a); err == nil {
		t.Fatal("asymmetric accepted")
	}
}

// residualCheck verifies A·v = λ·v for every pair and that the
// eigenvector basis is orthonormal and reproduces the trace.
func residualCheck(t *testing.T, a *linalg.Dense, vals []float64, vecs *linalg.Dense) {
	t.Helper()
	s := a.Rows
	var scale float64
	for _, v := range a.Data {
		if av := math.Abs(v); av > scale {
			scale = av
		}
	}
	if scale == 0 {
		scale = 1
	}
	for k := 0; k < s; k++ {
		v := vecs.Col(k)
		for i := 0; i < s; i++ {
			var av float64
			for j := 0; j < s; j++ {
				av += a.At(i, j) * v[j]
			}
			if math.Abs(av-vals[k]*v[i]) > 1e-8*scale {
				t.Fatalf("residual at eigpair %d, row %d: %g", k, i, av-vals[k]*v[i])
			}
		}
	}
	for i := 0; i < s; i++ {
		for j := i; j < s; j++ {
			dot := linalg.Dot(vecs.Col(i), vecs.Col(j))
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-9 {
				t.Fatalf("eigenvectors not orthonormal at (%d,%d): %g", i, j, dot)
			}
		}
	}
	var trace, sumVals float64
	for i := 0; i < s; i++ {
		trace += a.At(i, i)
	}
	for _, v := range vals {
		sumVals += v
	}
	if math.Abs(trace-sumVals) > 1e-8*(1+math.Abs(trace)) {
		t.Fatalf("trace %g != Σλ %g", trace, sumVals)
	}
}

func TestSymEigRandomProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := 2 + r.Intn(20)
		a := linalg.NewDense(s, s)
		for i := 0; i < s; i++ {
			for j := i; j < s; j++ {
				v := r.NormFloat64() * 3
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs, err := SymEig(a)
		if err != nil {
			return false
		}
		// Ascending order.
		for i := 1; i < s; i++ {
			if vals[i] < vals[i-1] {
				return false
			}
		}
		// Residuals inline (avoid t.Fatalf in quick).
		for k := 0; k < s; k++ {
			v := vecs.Col(k)
			for i := 0; i < s; i++ {
				var av float64
				for j := 0; j < s; j++ {
					av += a.At(i, j) * v[j]
				}
				if math.Abs(av-vals[k]*v[i]) > 1e-7*(1+math.Abs(vals[k])) {
					return false
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSymEigLaplacianOfPath(t *testing.T) {
	// Path P4 Laplacian eigenvalues: 2−2cos(kπ/4), k=0..3.
	s := 4
	a := linalg.NewDense(s, s)
	for i := 0; i < s; i++ {
		deg := 2.0
		if i == 0 || i == s-1 {
			deg = 1
		}
		a.Set(i, i, deg)
		if i+1 < s {
			a.Set(i, i+1, -1)
			a.Set(i+1, i, -1)
		}
	}
	vals, vecs, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < s; k++ {
		want := 2 - 2*math.Cos(float64(k)*math.Pi/float64(s))
		if math.Abs(vals[k]-want) > 1e-10 {
			t.Fatalf("λ_%d = %g, want %g", k, vals[k], want)
		}
	}
	residualCheck(t, a, vals, vecs)
}

func TestBottomKTopK(t *testing.T) {
	a := linalg.NewDense(4, 4)
	for i := 0; i < 4; i++ {
		a.Set(i, i, float64(i+1))
	}
	vals, vecs, err := BottomK(a, 2)
	if err != nil || len(vals) != 2 || vecs.Cols != 2 {
		t.Fatalf("BottomK: %v %v", vals, err)
	}
	if vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("BottomK vals = %v", vals)
	}
	tv, tm, err := TopK(a, 2)
	if err != nil || tv[0] != 4 || tv[1] != 3 || tm.Cols != 2 {
		t.Fatalf("TopK vals = %v, err %v", tv, err)
	}
	// k larger than s clamps.
	if v, _, _ := TopK(a, 10); len(v) != 4 {
		t.Fatalf("TopK clamp: %v", v)
	}
}

func TestSymEigRepeatedEigenvalues(t *testing.T) {
	// 2·I on a 4x4: all eigenvalues equal; any orthonormal basis is valid.
	a := linalg.NewDense(4, 4)
	for i := 0; i < 4; i++ {
		a.Set(i, i, 2)
	}
	vals, vecs, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if math.Abs(v-2) > 1e-12 {
			t.Fatalf("vals %v", vals)
		}
	}
	residualCheck(t, a, vals, vecs)

	// A block with an exactly repeated pair: diag(1, 3, 3, 7) conjugated by
	// a rotation in the middle plane stays diag — verify residuals anyway.
	b := linalg.NewDense(3, 3)
	copy(b.Data, []float64{2, 1, 0, 1, 2, 0, 0, 0, 3})
	// eigenvalues 1, 3, 3 (the 2x2 block has 1 and 3; plus explicit 3).
	vals, vecs, err = SymEig(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 3}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-10 {
			t.Fatalf("vals %v, want %v", vals, want)
		}
	}
	residualCheck(t, b, vals, vecs)
}

func TestSymEigZeroAndOneByOne(t *testing.T) {
	z := linalg.NewDense(2, 2)
	vals, vecs, err := SymEig(z)
	if err != nil || vals[0] != 0 || vals[1] != 0 {
		t.Fatalf("zero matrix: %v %v", vals, err)
	}
	residualCheck(t, z, vals, vecs)
	one := linalg.NewDense(1, 1)
	one.Set(0, 0, -5)
	vals, _, err = SymEig(one)
	if err != nil || vals[0] != -5 {
		t.Fatalf("1x1: %v %v", vals, err)
	}
}

// TestSymEigDegenerateInputs: every input either solves or returns an
// error — none panics — and a solve never reports a non-finite value.
func TestSymEigDegenerateInputs(t *testing.T) {
	dense := func(k int, vals ...float64) *linalg.Dense {
		a := linalg.NewDense(k, k)
		copy(a.Data, vals)
		return a
	}
	huge := linalg.NewDense(3, 3)
	linalg.Fill(huge.Data, math.MaxFloat64/2) // finite, but ‖a‖ overflows
	for _, c := range []struct {
		name    string
		a       *linalg.Dense
		wantErr bool
	}{
		{"0x0", linalg.NewDense(0, 0), false},
		{"1x1", dense(1, 3), false},
		{"1x1 zero", dense(1, 0), false},
		{"NaN", dense(2, 1, math.NaN(), math.NaN(), 1), true},
		{"NaN on the diagonal", dense(3, 0, 0, 0, 0, math.NaN(), 0, 0, 0, 0), true},
		{"+Inf", dense(2, math.Inf(1), 0, 0, 1), true},
		{"-Inf off the diagonal", dense(2, 1, math.Inf(-1), math.Inf(-1), 1), true},
		{"1x1 NaN", dense(1, math.NaN()), true},
		{"overflow", huge, true},
		{"non-square", linalg.NewDense(2, 3), true},
		{"0x1", linalg.NewDense(0, 1), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			vals, vecs, err := SymEig(c.a)
			if (err != nil) != c.wantErr {
				t.Fatalf("err = %v, want error %v", err, c.wantErr)
			}
			if err != nil {
				return
			}
			k := c.a.Rows
			if len(vals) != k || vecs.Rows != k || vecs.Cols != k {
				t.Fatalf("%d values, %dx%d vectors for a %dx%d matrix", len(vals), vecs.Rows, vecs.Cols, k, k)
			}
			residualCheck(t, c.a, vals, vecs)
			if k == 1 && (vecs.At(0, 0) != 1 || vals[0] != c.a.At(0, 0)) {
				t.Fatalf("1x1: λ = %v, v = %v", vals, vecs.Data)
			}
			if _, bv, err := BottomK(c.a, 2); err != nil || bv.Cols != k {
				t.Fatalf("BottomK: %d columns, %v", bv.Cols, err)
			}
			if _, tv, err := TopK(c.a, 2); err != nil || tv.Cols != k {
				t.Fatalf("TopK: %d columns, %v", tv.Cols, err)
			}
		})
	}

	// A NaN reaching the QL stage (here planted past the input check, as
	// an overflow would) ends the search for a negligible subdiagonal at
	// the last row instead of running off the end of d, and is reported.
	t.Run("NaN inside QL", func(t *testing.T) {
		v := []float64{1, 0, 0, 1}
		d := []float64{math.NaN(), 1}
		e := []float64{0, math.NaN()}
		if err := tql2(v, d, e, 2); err == nil {
			t.Fatalf("NaN not reported: d = %v", d)
		}
	})

	// The iteration bound: a matrix that needs more than one QL sweep for
	// its first eigenvalue fails when only one is allowed.
	t.Run("QL iteration cap", func(t *testing.T) {
		defer func(prev int) { maxQLIters = prev }(maxQLIters)
		a := dense(3, 2, 1, 1, 1, 3, 1, 1, 1, 4)
		if _, _, err := SymEig(a); err != nil {
			t.Fatalf("default bound: %v", err)
		}
		maxQLIters = 1
		if _, _, err := SymEig(a); err == nil {
			t.Fatal("a solve needing more than one QL sweep passed a bound of one")
		}
	})
}

// TestSymEigSignRule: every eigenvector's largest-magnitude entry is
// positive, so an eigenvector and its negation — equally valid — come
// out the same, whichever sign the rotations left.
func TestSymEigSignRule(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		s := 1 + r.Intn(30)
		a := linalg.NewDense(s, s)
		fillSym(r, a)
		_, vecs, err := SymEig(a)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < s; j++ {
			if !signRuleHolds(vecs.Col(j)) {
				t.Fatalf("s=%d column %d = %v breaks the sign rule", s, j, vecs.Col(j))
			}
		}
	}
	// Ties go to the lowest index: e.g. [[0,1],[1,0]] has eigenvectors
	// (1,−1)/√2 and (1,1)/√2 up to sign.
	a := linalg.NewDense(2, 2)
	copy(a.Data, []float64{0, 1, 1, 0})
	_, vecs, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if vecs.At(0, j) <= 0 {
			t.Fatalf("column %d = %v: first entry not positive", j, vecs.Col(j))
		}
	}
}

// signRuleHolds reports whether the first largest-magnitude entry of v is
// positive.
func signRuleHolds(v []float64) bool {
	big := 0
	for i := range v {
		if math.Abs(v[i]) > math.Abs(v[big]) {
			big = i
		}
	}
	return v[big] > 0
}

// TestBottomKScratchReuse: a solve in a dirtied, reused Scratch is
// bit-identical to BottomK's private one, its axes alias the scratch, and
// a same-size solve allocates nothing.
func TestBottomKScratchReuse(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	sc := &Scratch{}
	for _, s := range []int{40, 7, 40, 1, 25} {
		in, w := sc.Input(s)
		for i := range w {
			w[i] = r.NormFloat64()
		}
		fillSym(r, in)
		want, wantVecs, err := BottomK(in.Clone(), 2)
		if err != nil {
			t.Fatal(err)
		}
		wCopy := append([]float64(nil), w...)
		got, gotVecs, err := BottomKScratch(in, 2, sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || gotVecs.Cols != wantVecs.Cols {
			t.Fatalf("s=%d: %d/%d values, %d/%d columns", s, len(got), len(want), gotVecs.Cols, wantVecs.Cols)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("s=%d: λ%d = %v, private solve %v", s, i, got[i], want[i])
			}
		}
		for i := range wantVecs.Data {
			if gotVecs.Data[i] != wantVecs.Data[i] {
				t.Fatalf("s=%d: vector entry %d = %v, private solve %v", s, i, gotVecs.Data[i], wantVecs.Data[i])
			}
		}
		for i := range w {
			if w[i] != wCopy[i] {
				t.Fatalf("s=%d: the solve wrote the caller's vector", s)
			}
		}
	}
	in, _ := sc.Input(40)
	fillSym(r, in)
	if allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := BottomKScratch(in, 2, sc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm 40x40 solve allocates %.0f objects", allocs)
	}
}

// fillSym fills a with a random symmetric matrix.
func fillSym(r *rand.Rand, a *linalg.Dense) {
	for i := 0; i < a.Rows; i++ {
		for j := i; j < a.Rows; j++ {
			v := r.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
}

// TestBottomKReadsUpperTriangle: the solve reads the upper triangle only.
// A strict lower triangle perturbed within the asymmetry tolerance leaves
// every eigenpair bit for bit as it was, so a Z = SᵀLS built over its
// upper triangle and mirrored solves exactly as the full AᵀB product with
// the same upper triangle does; a perturbation above the tolerance is
// still rejected.
func TestBottomKReadsUpperTriangle(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, s := range []int{2, 7, 12, 40, 64} {
		a := linalg.NewDense(s, s)
		fillSym(r, a)
		var scale float64
		for _, x := range a.Data {
			scale = max(scale, math.Abs(x))
		}
		tol := 1e-8 * max(scale, 1)
		wantVals, wantVecs, err := BottomKScratch(a, s, &Scratch{})
		if err != nil {
			t.Fatal(err)
		}
		b := a.Clone()
		for j := 0; j < s; j++ {
			for i := j + 1; i < s; i++ {
				b.Set(i, j, b.At(i, j)+(r.Float64()-0.5)*tol)
			}
		}
		gotVals, gotVecs, err := BottomKScratch(b, s, &Scratch{})
		if err != nil {
			t.Fatalf("s=%d: perturbed within tolerance: %v", s, err)
		}
		for i := range wantVals {
			if gotVals[i] != wantVals[i] {
				t.Fatalf("s=%d: λ%d = %v with the lower triangle perturbed, %v without", s, i, gotVals[i], wantVals[i])
			}
		}
		for i := range wantVecs.Data {
			if gotVecs.Data[i] != wantVecs.Data[i] {
				t.Fatalf("s=%d: vector entry %d = %v with the lower triangle perturbed, %v without", s, i, gotVecs.Data[i], wantVecs.Data[i])
			}
		}
		c := a.Clone()
		c.Set(s-1, 0, c.At(s-1, 0)+2*tol)
		if _, _, err := BottomKScratch(c, s, &Scratch{}); err == nil {
			t.Fatalf("s=%d: a lower entry off by twice the tolerance was accepted", s)
		}
	}
}
