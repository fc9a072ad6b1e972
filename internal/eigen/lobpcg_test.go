package eigen

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/linalg"
)

func TestLOBPCGMatchesDense(t *testing.T) {
	g := gen.Grid2D(6, 5)
	n := g.NumV
	deg := g.WeightedDegrees()
	sym := linalg.NewDense(n, n)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(int32(v)) {
			sym.Set(v, int(u), 1/math.Sqrt(deg[v]*deg[u]))
		}
	}
	vals, _, err := SymEig(sym)
	if err != nil {
		t.Fatal(err)
	}
	res := LOBPCG(g, 2, LOBPCGOptions{Seed: 1, Tol: 1e-10, MaxIters: 2000})
	if math.Abs(res.Values[0]-vals[n-2]) > 1e-6 {
		t.Fatalf("LOBPCG λ1 = %g, dense %g", res.Values[0], vals[n-2])
	}
	if math.Abs(res.Values[1]-vals[n-3]) > 1e-6 {
		t.Fatalf("LOBPCG λ2 = %g, dense %g", res.Values[1], vals[n-3])
	}
}

// TestLOBPCGVectorsDOrthonormal checks the block LOBPCG returns:
// D-orthonormal, descending, and bit for bit the same for the same seed.
func TestLOBPCGVectorsDOrthonormal(t *testing.T) {
	g := gen.Mesh3D(6, 6, 6)
	deg := g.WeightedDegrees()
	opt := LOBPCGOptions{Seed: 3, Tol: 1e-8, MaxIters: 5000}
	res := LOBPCG(g, 3, opt)
	for i := 0; i < 3; i++ {
		for j := i; j < 3; j++ {
			d := linalg.DDot(res.Vectors.Col(i), deg, res.Vectors.Col(j))
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(d-want) > 1e-6 {
				t.Fatalf("not D-orthonormal at (%d,%d): %g", i, j, d)
			}
		}
	}
	for i := 1; i < 3; i++ {
		if res.Values[i] > res.Values[i-1]+1e-8 {
			t.Fatalf("values not descending: %v", res.Values)
		}
	}
	again := LOBPCG(g, 3, opt)
	if again.Iterations != res.Iterations {
		t.Fatalf("same seed: %d then %d iterations", res.Iterations, again.Iterations)
	}
	for i, v := range res.Vectors.Data {
		if math.Float64bits(again.Vectors.Data[i]) != math.Float64bits(v) {
			t.Fatalf("same seed, different vectors at %d: %g vs %g", i, v, again.Vectors.Data[i])
		}
	}
}

// TestLOBPCGHDESeedHelps checks that Init is used: a block already near
// the answer (a short run from another random start) converges in fewer
// iterations than a cold start.
func TestLOBPCGHDESeedHelps(t *testing.T) {
	g := gen.PlateWithHoles(22, 22)
	const tol = 1e-7
	seed := LOBPCG(g, 2, LOBPCGOptions{Seed: 5, MaxIters: 20, Tol: 1e-300})
	warm := LOBPCG(g, 2, LOBPCGOptions{Seed: 4, Tol: tol, MaxIters: 20000, Init: seed.Vectors})
	cold := LOBPCG(g, 2, LOBPCGOptions{Seed: 4, Tol: tol, MaxIters: 20000})
	if warm.Iterations > cold.Iterations {
		t.Fatalf("warm LOBPCG took %d iterations, cold %d", warm.Iterations, cold.Iterations)
	}
}
