package repro_bench

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ortho"
	"repro/internal/pivot"
)

// TestSoakRandomizedPipelines hammers the whole stack with randomized
// graph families × option combinations, checking the invariants that must
// hold for every successful run: finite coordinates, kept-column
// accounting, phase-time accounting, and quality better than random. It
// is the catch-all for option-interaction bugs that targeted tests miss.
func TestSoakRandomizedPipelines(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	r := rand.New(rand.NewSource(20260706))
	families := []func(seed uint64) *graph.CSR{
		func(s uint64) *graph.CSR { return gen.Urand(9, 6+int(s%8), s) },
		func(s uint64) *graph.CSR { return gen.Kron(9, 8, s) },
		func(s uint64) *graph.CSR { return gen.WebGraph(2000+int(s%2000), 10, s) },
		func(s uint64) *graph.CSR { return gen.Grid2D(15+int(s%20), 15+int(s%25)) },
		func(s uint64) *graph.CSR { return gen.Road(30+int(s%20), 30+int(s%20), s) },
		func(s uint64) *graph.CSR { return gen.PlateWithHoles(20+int(s%15), 20+int(s%15)) },
		func(s uint64) *graph.CSR { return gen.BarabasiAlbert(1500+int(s%1000), 3, s) },
		func(s uint64) *graph.CSR { return gen.WattsStrogatz(1500+int(s%1000), 6, 0.1, s) },
		func(s uint64) *graph.CSR { return gen.RandomGeometric(2000, 0.05, s) },
		func(s uint64) *graph.CSR {
			return gen.WithRandomWeights(gen.Grid2D(20+int(s%10), 20), 1+int(s%20), s)
		},
	}
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		seed := uint64(r.Int63())
		g := families[trial%len(families)](seed)
		opt := core.Options{
			Subspace:   3 + r.Intn(20),
			Seed:       seed,
			PlainOrtho: r.Intn(4) == 0,
			Dims:       2 + r.Intn(2),
		}
		if !g.Weighted() {
			opt.Pivots = []pivot.Strategy{pivot.KCenters, pivot.Random, pivot.RandomMS}[r.Intn(3)]
		}
		if r.Intn(2) == 0 {
			opt.Ortho = ortho.CGS
		}
		lay, rep, err := core.ParHDE(g, opt)
		if err != nil {
			// The only acceptable failure at these sizes: too few
			// independent columns for the requested dimensionality.
			if rep == nil && opt.Subspace <= opt.Dims+1 {
				continue
			}
			t.Fatalf("trial %d (family %d, opts %+v): %v", trial, trial%len(families), opt, err)
		}
		if lay.NumVertices() != g.NumV || lay.Dims() != opt.Dims {
			t.Fatalf("trial %d: layout shape %dx%d", trial, lay.NumVertices(), lay.Dims())
		}
		for _, v := range lay.Coords.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("trial %d: non-finite coordinate", trial)
			}
		}
		if rep.KeptColumns < opt.Dims || rep.KeptColumns+rep.DroppedColumns > opt.Subspace {
			t.Fatalf("trial %d: column accounting kept=%d dropped=%d s=%d",
				trial, rep.KeptColumns, rep.DroppedColumns, opt.Subspace)
		}
		bd := rep.Breakdown
		if bd.BFS()+bd.DOrtho+bd.TripleProd()+bd.Other() > bd.Total {
			t.Fatalf("trial %d: phase times exceed total", trial)
		}
		q := core.Evaluate(g, lay)
		rq := core.Evaluate(g, core.RandomLayout(g.NumV, opt.Dims, seed^1))
		if !(q.HallRatio < rq.HallRatio) {
			t.Fatalf("trial %d: quality %.4g not below random %.4g", trial, q.HallRatio, rq.HallRatio)
		}
	}
}
