package quality

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
)

// referenceTol is the residual ‖D⁻¹A·x − λx‖_D to which LOBPCG computes
// the spectral reference. It bounds the reference's own angle error by
// referenceTol / (λ₂ − λ₃), below 1e-4 rad on every family here.
const referenceTol = 1e-8

// spectralFamilies are the graph families whose ParHDE span is held to
// the true spectral span, each with a bar on the largest principal angle
// as a function of s:
//
//	bar(s) = 1.25 · a · (10/s)^b
//
// a is the angle measured at s = 10, b the exponent of the power law
// through the angles measured at s = 10 and s = 50 (pivots k-centers,
// seed 1, D-orthogonalization), and 1.25 is the margin: 25% above the
// measurement. Measured at s = 10 / 20 / 50: grid 0.059 / 0.020 / 0.014,
// plate 0.139 / 0.100 / 0.083, road 0.181 / 0.147 / 0.122 rad.
//
// Mesh3D is not a family: on a cube the top non-trivial eigenvalue has
// one eigenvector per axis (0.969779 three times on Mesh3D(8, 8, 8)),
// so λ₂ = λ₃ and no 2-D span is singled out to compare against.
var spectralFamilies = []struct {
	name string
	g    func() *graph.CSR
	a, b float64
}{
	{"Grid2D(30,20)", func() *graph.CSR { return gen.Grid2D(30, 20) }, 0.059, 0.89},
	{"PlateWithHoles(25,25)", func() *graph.CSR { return gen.PlateWithHoles(25, 25) }, 0.139, 0.32},
	{"Road(60,60,5)", func() *graph.CSR { return gen.Road(60, 60, 5) }, 0.181, 0.25},
}

// TestParHDESpanNearSpectral is the differential test: the largest
// D-inner-product principal angle between span(x, y) of a ParHDE layout
// and the bottom two non-trivial generalized eigenvectors of (L, D) stays
// under each family's bar at s = 10, 20 and 50. The reference is LOBPCG,
// cross-checked against a dense solve where n ≤ 600.
func TestParHDESpanNearSpectral(t *testing.T) {
	for _, f := range spectralFamilies {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			g := f.g()
			deg := g.WeightedDegrees()
			ref := eigen.LOBPCG(g, 2, eigen.LOBPCGOptions{Seed: 1, MaxIters: 100000, Tol: referenceTol})
			if ref.Residual > referenceTol {
				t.Fatalf("LOBPCG reference stopped at residual %.2e after %d iterations", ref.Residual, ref.Iterations)
			}
			if g.NumV <= 600 {
				checkAgainstDense(t, g, deg, ref)
			}
			for _, s := range []int{10, 20, 50} {
				lay, _, err := core.ParHDE(g, core.Options{Subspace: s, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				angles, err := PrincipalAngles(lay.Coords, ref.Vectors, deg)
				if err != nil {
					t.Fatal(err)
				}
				got, bar := angles[len(angles)-1], 1.25*f.a*math.Pow(10/float64(s), f.b)
				if got > bar {
					t.Errorf("s=%d: largest principal angle to the spectral span %.4f rad, bar %.4f", s, got, bar)
				}
				t.Logf("s=%d: largest angle %.4f rad (bar %.4f)", s, got, bar)
			}
		})
	}
}

// checkAgainstDense holds the LOBPCG reference to the dense solution:
// eigen.SymEig of D^{-1/2}·A·D^{-1/2}, whose eigenvectors u give the
// generalized eigenvectors x = D^{-1/2}·u. It also checks the gap below
// the pair, without which the 2-D span would not be defined.
func checkAgainstDense(t *testing.T, g *graph.CSR, deg []float64, ref eigen.LOBPCGResult) {
	t.Helper()
	n := g.NumV
	sym := linalg.NewDense(n, n)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(int32(v)) {
			sym.Set(v, int(u), 1/math.Sqrt(deg[v]*deg[u]))
		}
	}
	vals, vecs, err := eigen.SymEig(sym)
	if err != nil {
		t.Fatal(err)
	}
	// Ascending: vals[n-1] is the trivial 1, vals[n-2] and vals[n-3] the pair.
	if gap := vals[n-3] - vals[n-4]; gap < 1e-3 {
		t.Fatalf("λ₂ − λ₃ = %.2e: the 2-D span is not well defined", gap)
	}
	dense := linalg.NewDense(n, 2)
	for j := 0; j < 2; j++ {
		if d := math.Abs(ref.Values[j] - vals[n-2-j]); d > 1e-10 {
			t.Fatalf("LOBPCG λ%d = %.15f, dense %.15f", j+1, ref.Values[j], vals[n-2-j])
		}
		u := vecs.Col(n - 2 - j)
		for i := range u {
			dense.Set(i, j, u[i]/math.Sqrt(deg[i]))
		}
	}
	angles, err := PrincipalAngles(ref.Vectors, dense, deg)
	if err != nil {
		t.Fatal(err)
	}
	if a := angles[len(angles)-1]; a > 1e-5 {
		t.Fatalf("LOBPCG reference %.2e rad from the dense span", a)
	}
}
