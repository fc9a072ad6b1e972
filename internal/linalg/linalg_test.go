package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

func randVec(n int, r *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }

func TestDotMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 1000, 5000} {
		x, y := randVec(n, r), randVec(n, r)
		var want float64
		for i := range x {
			want += x[i] * y[i]
		}
		if got := Dot(x, y); !approxEq(got, want, 1e-12) {
			t.Fatalf("n=%d: Dot = %g, want %g", n, got, want)
		}
	}
}

func TestDDot(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	n := 3000
	x, y, d := randVec(n, r), randVec(n, r), randVec(n, r)
	var want float64
	for i := range x {
		want += x[i] * d[i] * y[i]
	}
	if got := DDot(x, d, y); !approxEq(got, want, 1e-12) {
		t.Fatalf("DDot = %g, want %g", got, want)
	}
}

func TestAxpyScaleFill(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 4000
	x, y := randVec(n, r), randVec(n, r)
	yc := append([]float64(nil), y...)
	Axpy(2.5, x, y)
	for i := range y {
		if !approxEq(y[i], yc[i]+2.5*x[i], 1e-12) {
			t.Fatalf("Axpy wrong at %d", i)
		}
	}
	Scale(0.5, y)
	for i := range y {
		if !approxEq(y[i], (yc[i]+2.5*x[i])*0.5, 1e-12) {
			t.Fatalf("Scale wrong at %d", i)
		}
	}
	Fill(y, 7)
	for i := range y {
		if y[i] != 7 {
			t.Fatalf("Fill wrong at %d", i)
		}
	}
}

func TestCopyVecAndConversions(t *testing.T) {
	src32 := []int32{3, -1, 7, 0}
	dst := make([]float64, 4)
	Int32ToFloat64Budget(parallel.Live(), dst, src32)
	for i := range dst {
		if dst[i] != float64(src32[i]) {
			t.Fatal("Int32ToFloat64Budget wrong")
		}
	}
	src := []float64{1.5, -2, 0, 8}
	CopyVec(dst, src)
	for i := range dst {
		if dst[i] != src[i] {
			t.Fatal("CopyVec wrong")
		}
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"dot":  func() { Dot(make([]float64, 3), make([]float64, 4)) },
		"axpy": func() { Axpy(1, make([]float64, 3), make([]float64, 4)) },
		"copy": func() { CopyVec(make([]float64, 3), make([]float64, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDenseBasics(t *testing.T) {
	m := NewDense(3, 2)
	m.Set(2, 1, 9)
	if m.At(2, 1) != 9 || m.Col(1)[2] != 9 {
		t.Fatal("Set/At/Col inconsistent")
	}
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) == 5 {
		t.Fatal("Clone aliases storage")
	}
	s := m.Slice(1)
	if s.Cols != 1 || s.Rows != 3 {
		t.Fatal("Slice wrong shape")
	}
	d := m.DropColumns([]int{1})
	if d.Cols != 1 || d.At(2, 0) != 9 {
		t.Fatal("DropColumns wrong")
	}
}

func naiveAtB(a, b *Dense) *Dense {
	c := NewDense(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for r := 0; r < a.Rows; r++ {
				s += a.At(r, i) * b.At(r, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestAtBMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, shape := range [][3]int{{10, 3, 4}, {5000, 6, 6}, {1, 2, 3}} {
		n, s, u := shape[0], shape[1], shape[2]
		a, b := NewDense(n, s), NewDense(n, u)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		want := naiveAtB(a, b)
		got := AtBPackedBudget(parallel.Live(), a, b, nil, nil, nil)
		for i := range want.Data {
			if !approxEq(got.Data[i], want.Data[i], 1e-10) {
				t.Fatalf("shape %v: AtB[%d] = %g, want %g", shape, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestMulSmallMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n, s, p := 3000, 5, 2
	a, y := NewDense(n, s), NewDense(s, p)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = r.NormFloat64()
	}
	got := MulSmallBudget(parallel.Live(), a, y, nil)
	for i := 0; i < n; i += 97 {
		for j := 0; j < p; j++ {
			var want float64
			for k := 0; k < s; k++ {
				want += a.At(i, k) * y.At(k, j)
			}
			if !approxEq(got.At(i, j), want, 1e-10) {
				t.Fatalf("MulSmall(%d,%d) = %g, want %g", i, j, got.At(i, j), want)
			}
		}
	}
}

func TestLaplacianQuadraticFormIdentity(t *testing.T) {
	// yᵀLy = Σ_{⟨i,j⟩∈E} w(i,j)(y_i − y_j)² — the spectral identity §2.1
	// builds everything on.
	cfg := &quick.Config{MaxCount: 20}
	err := quick.Check(func(seed int64, weighted bool) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(60)
		edges := make([]graph.Edge, 3*n)
		for i := range edges {
			edges[i] = graph.Edge{U: int32(r.Intn(n)), V: int32(r.Intn(n)), W: 1 + float64(r.Intn(5))}
		}
		g, err := graph.FromEdges(n, edges, graph.BuildOptions{Weighted: weighted, KeepAllComponents: true})
		if err != nil {
			return false
		}
		y := randVec(g.NumV, r)
		deg := g.WeightedDegrees()
		ly := make([]float64, g.NumV)
		LapMulVecBudget(parallel.Live(), g, deg, y, ly)
		got := Dot(y, ly)
		var want float64
		for v := int32(0); int(v) < g.NumV; v++ {
			for k, u := range g.Neighbors(v) {
				if u <= v {
					continue
				}
				w := 1.0
				if weighted {
					w = g.NeighborWeights(v)[k]
				}
				d := y[v] - y[u]
				want += w * d * d
			}
		}
		return approxEq(got, want, 1e-9)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLaplacianAnnihilatesConstants(t *testing.T) {
	g := gen.Kron(8, 8, 3)
	deg := g.WeightedDegrees()
	ones := make([]float64, g.NumV)
	Fill(ones, 3.7)
	out := make([]float64, g.NumV)
	LapMulVecBudget(parallel.Live(), g, deg, ones, out)
	for i, v := range out {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("L·const ≠ 0 at %d: %g", i, v)
		}
	}
}

func TestFusedMatchesExplicitLaplacian(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		var g *graph.CSR
		if weighted {
			g = gen.WithRandomWeights(gen.Grid2D(20, 20), 7, 5)
		} else {
			g = gen.Urand(9, 8, 6)
		}
		deg := g.WeightedDegrees()
		r := rand.New(rand.NewSource(8))
		s := NewDense(g.NumV, 4)
		for i := range s.Data {
			s.Data[i] = r.NormFloat64()
		}
		fused := LapMulDenseTiledPackedBudget(parallel.Live(), g, deg, s, nil, nil, nil)
		explicit := NewExplicitLaplacian(parallel.Live(), g).MulDense(parallel.Live(), s)
		for i := range fused.Data {
			if !approxEq(fused.Data[i], explicit.Data[i], 1e-10) {
				t.Fatalf("weighted=%v: fused[%d] = %g, explicit %g", weighted, i, fused.Data[i], explicit.Data[i])
			}
		}
	}
}

func TestExplicitLaplacianStructure(t *testing.T) {
	g := gen.Path(5)
	lap := NewExplicitLaplacian(parallel.Live(), g)
	// Path Laplacian row 0: [1, -1, 0, 0, 0]; row 2: [0,-1,2,-1,0].
	x := []float64{1, 2, 3, 4, 5}
	p := make([]float64, 5)
	lap.MulVec(parallel.Live(), x, p)
	want := []float64{-1, 0, 0, 0, 1}
	for i := range want {
		if !approxEq(p[i], want[i], 1e-12) {
			t.Fatalf("L·x[%d] = %g, want %g", i, p[i], want[i])
		}
	}
}

func TestWalkMulVecRowStochastic(t *testing.T) {
	// D⁻¹A applied to the all-ones vector returns all ones (row sums 1).
	g := gen.ChungLu(500, 8, 2.3, 4)
	deg := g.WeightedDegrees()
	ones := make([]float64, g.NumV)
	Fill(ones, 1)
	out := make([]float64, g.NumV)
	WalkMulVec(g, deg, ones, out)
	for i, v := range out {
		if !approxEq(v, 1, 1e-12) {
			t.Fatalf("walk row sum at %d = %g", i, v)
		}
	}
}

func TestColumnCenterZeroMeans(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	m := NewDense(2048, 5)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()*10 + 3
	}
	ColumnCenter(parallel.Live(), m)
	for j := 0; j < m.Cols; j++ {
		var sum float64
		for _, v := range m.Col(j) {
			sum += v
		}
		if math.Abs(sum/float64(m.Rows)) > 1e-10 {
			t.Fatalf("column %d mean %g after centering", j, sum/float64(m.Rows))
		}
	}
}

func TestDoubleCenterZeroRowAndColMeans(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	m := NewDense(300, 6)
	for i := range m.Data {
		m.Data[i] = math.Abs(r.NormFloat64()) * 5
	}
	DoubleCenter(parallel.Live(), m)
	for j := 0; j < m.Cols; j++ {
		var sum float64
		for _, v := range m.Col(j) {
			sum += v
		}
		if math.Abs(sum) > 1e-8 {
			t.Fatalf("column %d sum %g after double centering", j, sum)
		}
	}
	for i := 0; i < m.Rows; i++ {
		var sum float64
		for j := 0; j < m.Cols; j++ {
			sum += m.At(i, j)
		}
		if math.Abs(sum) > 1e-8 {
			t.Fatalf("row %d sum %g after double centering", i, sum)
		}
	}
}

func TestSquareElements(t *testing.T) {
	m := NewDense(2, 2)
	copy(m.Data, []float64{-3, 2, 0, 5})
	SquareElements(parallel.Live(), m)
	want := []float64{9, 4, 0, 25}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatal("SquareElements wrong")
		}
	}
}

// TestTiledMatchesColumnwiseLS: the row-packed L·S kernel equals one SpMV
// per column bit for bit, weighted and unweighted, at every chunk
// remainder and at zero columns, under a live budget of four workers.
func TestTiledMatchesColumnwiseLS(t *testing.T) {
	withProcs(4, func() {
		for name, g := range lsGraphs() {
			deg := g.WeightedDegrees()
			r := rand.New(rand.NewSource(6))
			for _, cols := range append([]int{0}, lsColCounts...) {
				s := NewDense(g.NumV, cols)
				fillRand(s, r)
				a := refLapMul(g, deg, s)
				b := LapMulDenseTiledPackedBudget(parallel.Live(), g, deg, s, nil, nil, nil)
				assertDenseEqual(t, fmt.Sprintf("%s cols=%d", name, cols), b, a)
			}
		}
	})
}

func TestTiledPanicsOnMismatch(t *testing.T) {
	g := gen.Path(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LapMulDenseTiledPackedBudget(parallel.Live(), g, g.WeightedDegrees(), NewDense(4, 2), nil, nil, nil)
}
