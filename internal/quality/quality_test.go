package quality

import (
	"math"
	"testing"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/gen"
	"repro/internal/linalg"
)

func TestNeighborhoodPreservationGridPerfect(t *testing.T) {
	// For a grid drawn at its true coordinates, layout neighborhoods are
	// graph neighborhoods.
	rows, cols := 15, 15
	g := gen.Grid2D(rows, cols)
	coords := linalg.NewDense(g.NumV, 2)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			coords.Set(r*cols+c, 0, float64(c))
			coords.Set(r*cols+c, 1, float64(r))
		}
	}
	exact := &core.Layout{Coords: coords}
	np := NeighborhoodPreservation(g, exact, 4, 50, 1)
	if np < 0.9 {
		t.Fatalf("exact grid neighborhood preservation %.3f", np)
	}
	rnd := NeighborhoodPreservation(g, core.RandomLayout(g.NumV, 2, 2), 4, 50, 1)
	if np <= rnd {
		t.Fatalf("exact %.3f not above random %.3f", np, rnd)
	}
}

func TestNeighborhoodPreservationHDE(t *testing.T) {
	g := gen.PlateWithHoles(25, 25)
	lay, _, err := core.ParHDE(g, core.Options{Subspace: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hde := NeighborhoodPreservation(g, lay, 6, 60, 3)
	rnd := NeighborhoodPreservation(g, core.RandomLayout(g.NumV, 2, 4), 6, 60, 3)
	if hde <= 2*rnd {
		t.Fatalf("HDE preservation %.3f not well above random %.3f", hde, rnd)
	}
}

func TestNeighborhoodPreservationEdgeCases(t *testing.T) {
	g := gen.Path(3)
	l := core.RandomLayout(3, 2, 1)
	if v := NeighborhoodPreservation(g, l, 0, 3, 1); v != 0 {
		t.Fatalf("k=0 returned %g", v)
	}
	// k larger than n−1 clamps.
	if v := NeighborhoodPreservation(g, l, 10, 3, 1); v <= 0 || v > 1 {
		t.Fatalf("clamped k returned %g", v)
	}
}

// TestNeighborhoodPreservationIgnoresNonFinite: one vertex drawn at
// infinity (or NaN) is left out of the layout grid, which is binned by
// the finite bounding box, so the score stays that of the finite drawing
// (the vertex itself, if sampled, counts as preserving nothing). Binned
// over every value, one +Inf x squeezed every other vertex into one
// column of cells and the score fell from 0.74 to 0.52.
func TestNeighborhoodPreservationIgnoresNonFinite(t *testing.T) {
	g := gen.Grid2D(30, 30)
	l, _, err := core.ParHDE(g, core.Options{Subspace: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := NeighborhoodPreservation(g, l, 8, 200, 7)
	for _, bad := range []struct {
		v   int
		val float64
	}{{0, math.Inf(1)}, {451, math.Inf(-1)}, {899, math.NaN()}} {
		m := l.Clone()
		m.X()[bad.v] = bad.val
		if got := NeighborhoodPreservation(g, m, 8, 200, 7); math.Abs(got-want) > 0.01 {
			t.Errorf("x[%d] = %g: preservation %.3f, finite layout %.3f", bad.v, bad.val, got, want)
		}
	}
}

func TestProcrustesIdentityAndRotation(t *testing.T) {
	g := gen.Grid2D(10, 10)
	lay, _, err := core.ParHDE(g, core.Options{Subspace: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Self-distance zero.
	d, err := ProcrustesDistance(lay, lay, false)
	if err != nil || d > 1e-12 {
		t.Fatalf("self distance %g, err %v", d, err)
	}
	// Rotated + scaled + translated copy: still zero.
	rot := lay.Clone()
	theta := 0.7
	c, s := math.Cos(theta), math.Sin(theta)
	for i := 0; i < rot.NumVertices(); i++ {
		x, y := rot.X()[i], rot.Y()[i]
		rot.X()[i] = 3*(c*x-s*y) + 10
		rot.Y()[i] = 3*(s*x+c*y) - 4
	}
	d, err = ProcrustesDistance(lay, rot, false)
	if err != nil || d > 1e-9 {
		t.Fatalf("rotated distance %g, err %v", d, err)
	}
	// Reflected copy: zero only when reflections are allowed.
	ref := lay.Clone()
	for i := range ref.X() {
		ref.X()[i] = -ref.X()[i]
	}
	dNo, _ := ProcrustesDistance(lay, ref, false)
	dYes, _ := ProcrustesDistance(lay, ref, true)
	if dYes > 1e-9 {
		t.Fatalf("reflection not absorbed: %g", dYes)
	}
	if dNo <= dYes {
		t.Fatalf("proper-only distance %g not above reflection-allowed %g", dNo, dYes)
	}
}

func TestProcrustesHDECloseToSpectral(t *testing.T) {
	// Figure 1's claim, quantified: the ParHDE drawing is far closer to
	// the true spectral drawing than a random layout is.
	g := gen.PlateWithHoles(25, 25)
	hde, _, err := core.ParHDE(g, core.Options{Subspace: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref := eigen.LOBPCG(g, 2, eigen.LOBPCGOptions{Seed: 1, MaxIters: 5000, Tol: 1e-8})
	spectral := &core.Layout{Coords: ref.Vectors}
	dHDE, err := ProcrustesDistance(spectral, hde, true)
	if err != nil {
		t.Fatal(err)
	}
	dRnd, err := ProcrustesDistance(spectral, core.RandomLayout(g.NumV, 2, 3), true)
	if err != nil {
		t.Fatal(err)
	}
	if dHDE >= dRnd/3 {
		t.Fatalf("HDE Procrustes distance %.4f not well below random %.4f", dHDE, dRnd)
	}
}

func TestProcrustesErrors(t *testing.T) {
	a := core.RandomLayout(5, 2, 1)
	b := core.RandomLayout(6, 2, 1)
	if _, err := ProcrustesDistance(a, b, false); err == nil {
		t.Fatal("size mismatch accepted")
	}
	c := core.RandomLayout(5, 3, 1)
	if _, err := ProcrustesDistance(a, c, false); err == nil {
		t.Fatal("3D accepted")
	}
}

// TestSampledStressMatchesPairwise checks the closed-form sum against the
// per-pair definition (1/|P|) Σ w(d − αr)² with every vertex a source,
// and that a path drawn on a line has zero stress.
// TestProcrustesNonFiniteIsError: a non-finite coordinate in either
// layout is an error, not a NaN distance.
func TestProcrustesNonFiniteIsError(t *testing.T) {
	g := gen.Grid2D(30, 30)
	l, _, err := core.ParHDE(g, core.Options{Subspace: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, val := range []float64{math.Inf(1), math.NaN()} {
		bad := l.Clone()
		bad.X()[0] = val
		for _, pair := range [][2]*core.Layout{{l, bad}, {bad, l}} {
			if d, err := ProcrustesDistance(pair[0], pair[1], true); err == nil {
				t.Errorf("x[0] = %g: distance %g with no error", val, d)
			}
		}
	}
}

func TestSampledStressMatchesPairwise(t *testing.T) {
	g := gen.PlateWithHoles(12, 12)
	l := core.RandomLayout(g.NumV, 2, 5)
	type pair struct{ d, r float64 }
	var pairs []pair
	var swdr, swrr float64
	dist := make([]int32, g.NumV)
	for s := int32(0); int(s) < g.NumV; s++ {
		bfs.Serial(g, s, dist)
		for v, d := range dist {
			if d <= 0 {
				continue
			}
			dx := l.Coords.At(v, 0) - l.Coords.At(int(s), 0)
			dy := l.Coords.At(v, 1) - l.Coords.At(int(s), 1)
			r, fd := math.Hypot(dx, dy), float64(d)
			swdr += fd * r / (fd * fd)
			swrr += r * r / (fd * fd)
			pairs = append(pairs, pair{fd, r})
		}
	}
	alpha := swdr / swrr
	var want float64
	for _, q := range pairs {
		e := q.d - alpha*q.r
		want += e * e / (q.d * q.d)
	}
	want /= float64(len(pairs))
	if got := SampledStress(g, l, g.NumV, 3); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("stress %.15g, per-pair %.15g", got, want)
	}

	p := gen.Path(30)
	line := linalg.NewDense(p.NumV, 1)
	for v := 0; v < p.NumV; v++ {
		line.Set(v, 0, 0.5*float64(v))
	}
	if got := SampledStress(p, &core.Layout{Coords: line}, 8, 1); math.Abs(got) > 1e-12 {
		t.Fatalf("path on a line has stress %g, want 0", got)
	}
}
