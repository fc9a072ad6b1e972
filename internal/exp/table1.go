package exp

import (
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/gen"
)

// Table1 empirically verifies the asymptotic analysis of the paper's
// Table 1: with the graph fixed, BFS-phase and TripleProd work grow
// linearly in the subspace dimension s while DOrtho grows quadratically;
// with s fixed, every phase grows (near-)linearly in the graph size. The
// runner sweeps both axes, fits log-log slopes, and prints the measured
// exponents next to the predicted ones.
func Table1(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()

	// --- s-sweep on a fixed graph ------------------------------------
	g := gen.Kron(14, 16, 102)
	sValues := []int{5, 10, 20, 40, 80}
	fprintf(w, "Table 1 verification (kron analogue, n=%d m=%d): phase time vs s\n", g.NumV, g.NumEdges())
	fprintf(w, "%6s %10s %12s %10s\n", "s", "BFS (s)", "TripleProd", "DOrtho")
	var bfsT, tpT, doT []float64
	for _, s := range sValues {
		opt := core.Options{Subspace: s, Seed: 42}
		var rep *core.Report
		minTime(cfg.Reps, func() { rep = mustParHDE(NamedGraph{Name: "kron", G: g}, opt) })
		bd := rep.Breakdown
		bfsT = append(bfsT, seconds(bd.BFS()))
		tpT = append(tpT, seconds(bd.TripleProd()))
		doT = append(doT, seconds(bd.DOrtho))
		fprintf(w, "%6d %10.4f %12.4f %10.4f\n", s, seconds(bd.BFS()), seconds(bd.TripleProd()), seconds(bd.DOrtho))
	}
	sf := make([]float64, len(sValues))
	for i, s := range sValues {
		sf[i] = float64(s)
	}
	fprintf(w, "fitted exponents (time ∝ s^e): BFS e=%.2f (predict 1), TripleProd e=%.2f (predict 1..2: s·m for LS + s²·n for the gemm), DOrtho e=%.2f (predict 2)\n",
		loglogSlope(sf, bfsT), loglogSlope(sf, tpT), loglogSlope(sf, doT))

	// --- n-sweep at fixed s -------------------------------------------
	fprintf(w, "\nphase time vs n (grid family, s=10)\n")
	fprintf(w, "%10s %10s %12s %10s\n", "n", "BFS (s)", "TripleProd", "DOrtho")
	var ns, bfsN, tpN, doN []float64
	for _, side := range []int{64, 96, 128, 192, 256} {
		gg := gen.Grid2D(side*scaled(1, cfg.Factor), side*scaled(1, cfg.Factor))
		opt := core.Options{Subspace: 10, Seed: 42}
		var rep *core.Report
		minTime(cfg.Reps, func() { rep = mustParHDE(NamedGraph{Name: "grid", G: gg}, opt) })
		bd := rep.Breakdown
		ns = append(ns, float64(gg.NumV))
		bfsN = append(bfsN, seconds(bd.BFS()))
		tpN = append(tpN, seconds(bd.TripleProd()))
		doN = append(doN, seconds(bd.DOrtho))
		fprintf(w, "%10d %10.4f %12.4f %10.4f\n", gg.NumV, seconds(bd.BFS()), seconds(bd.TripleProd()), seconds(bd.DOrtho))
	}
	fprintf(w, "fitted exponents (time ∝ n^e): BFS e=%.2f, TripleProd e=%.2f, DOrtho e=%.2f (all predict ~1; grid BFS carries a √n diameter depth term)\n",
		loglogSlope(ns, bfsN), loglogSlope(ns, tpN), loglogSlope(ns, doN))
	return nil
}

// loglogSlope fits the least-squares slope of log(y) against log(x) —
// the empirical scaling exponent.
func loglogSlope(x, y []float64) float64 {
	var sx, sy, sxx, sxy float64
	n := 0
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			continue
		}
		lx, ly := math.Log(x[i]), math.Log(y[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
	}
	if n < 2 {
		return 0
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (fn*sxy - sx*sy) / den
}
