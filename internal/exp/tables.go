package exp

import (
	"io"
	"time"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/ortho"
	"repro/internal/parallel"
	"repro/internal/pivot"
)

// Table2 prints the graph collection after preprocessing (paper Table 2):
// name, edge count, vertex count.
func Table2(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	fprintf(w, "Table 2: test graph collection (synthetic analogues, factor %d)\n", cfg.Factor)
	fprintf(w, "%-10s %-11s %12s %12s\n", "graph", "analogue", "m", "n")
	for _, ng := range Collection(cfg.Factor) {
		fprintf(w, "%-10s %-11s %12d %12d\n", ng.Name, ng.Analogue, ng.G.NumEdges(), ng.G.NumV)
	}
	return nil
}

// Table3 compares ParHDE against the prior parallel implementation at
// s = 10 on the five large graphs (paper Table 3).
func Table3(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	fprintf(w, "Table 3: ParHDE vs prior parallel implementation, s=10\n")
	fprintf(w, "%-10s %12s %12s %9s\n", "graph", "ParHDE (s)", "Prior (s)", "speedup")
	for _, ng := range LargeCollection(cfg.Factor) {
		opt := core.Options{Subspace: 10, Seed: 42}
		tPar := minTime(cfg.Reps, func() {
			if _, _, err := core.ParHDE(ng.G, opt); err != nil {
				panic(err)
			}
		})
		tPrior := minTime(cfg.Reps, func() {
			if _, _, err := core.Prior(ng.G, opt); err != nil {
				panic(err)
			}
		})
		fprintf(w, "%-10s %12.4f %12.4f %8.1fx\n",
			ng.Name, seconds(tPar), seconds(tPrior), ratio(tPrior, tPar))
	}
	return nil
}

// Table4 reports ParHDE execution time on every graph plus the relative
// speedup over the single-threaded run (paper Table 4).
func Table4(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	fprintf(w, "Table 4: ParHDE execution time and relative speedup (%d threads vs 1), s=10\n", cfg.MaxThreads)
	fprintf(w, "%-10s %12s %12s %10s\n", "graph", "time (s)", "1-thread(s)", "rel.spdup")
	opt := core.Options{Subspace: 10, Seed: 42}
	for _, ng := range Collection(cfg.Factor) {
		var tPar, tSer time.Duration
		withThreads(cfg.MaxThreads, func() {
			tPar = minTime(cfg.Reps, func() { mustParHDE(ng, opt) })
		})
		withThreads(1, func() {
			tSer = minTime(cfg.Reps, func() { mustParHDE(ng, opt) })
		})
		fprintf(w, "%-10s %12.4f %12.4f %9.1fx\n",
			ng.Name, seconds(tPar), seconds(tSer), ratio(tSer, tPar))
	}
	return nil
}

// Table5 reports PHDE and PivotMDS times with relative speedups on the
// five large graphs (paper Table 5).
func Table5(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	fprintf(w, "Table 5: PHDE and PivotMDS execution times and relative speedup, s=10\n")
	fprintf(w, "%-10s %12s %10s %14s %10s\n", "graph", "PHDE (s)", "rel.spdup", "PivotMDS (s)", "rel.spdup")
	opt := core.Options{Subspace: 10, Seed: 42}
	for _, ng := range LargeCollection(cfg.Factor) {
		var tP, tP1, tM, tM1 time.Duration
		withThreads(cfg.MaxThreads, func() {
			tP = minTime(cfg.Reps, func() { mustRun(core.PHDE, ng, opt) })
			tM = minTime(cfg.Reps, func() { mustRun(core.PivotMDS, ng, opt) })
		})
		withThreads(1, func() {
			tP1 = minTime(cfg.Reps, func() { mustRun(core.PHDE, ng, opt) })
			tM1 = minTime(cfg.Reps, func() { mustRun(core.PivotMDS, ng, opt) })
		})
		fprintf(w, "%-10s %12.4f %9.1fx %14.4f %9.1fx\n",
			ng.Name, seconds(tP), ratio(tP1, tP), seconds(tM), ratio(tM1, tM))
	}
	return nil
}

// Table6 compares the default k-centers pivot strategy against random
// pivots on the BFS phase with 30 sources, on the five smallest graphs
// (paper Table 6).
func Table6(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	const sources = 30
	fprintf(w, "Table 6: BFS phase, k-centers vs random pivots (plus bit-parallel MS-BFS), %d sources\n", sources)
	fprintf(w, "%-10s %14s %14s %9s %12s %9s\n", "graph", "k-centers (s)", "random (s)", "speedup", "ms-bfs (s)", "speedup")
	for _, ng := range SmallCollection(cfg.Factor) {
		g := ng.G
		s := sources
		if s >= g.NumV {
			s = g.NumV - 1
		}
		b := linalg.NewDense(g.NumV, s)
		tDefault := minTime(cfg.Reps, func() {
			pivot.PhaseBudget(parallel.Live(), g, b, 0, pivot.KCenters, bfs.Options{}, nil, nil, nil)
		})
		tRandom := minTime(cfg.Reps, func() {
			pivot.PhaseBudget(parallel.Live(), g, b, 0, pivot.Random, bfs.Options{}, nil, nil, nil)
		})
		tMS := minTime(cfg.Reps, func() {
			pivot.PhaseBudget(parallel.Live(), g, b, 0, pivot.RandomMS, bfs.Options{}, nil, nil, nil)
		})
		fprintf(w, "%-10s %14.4f %14.4f %8.1fx %12.4f %8.1fx\n",
			ng.Name, seconds(tDefault), seconds(tRandom), ratio(tDefault, tRandom),
			seconds(tMS), ratio(tDefault, tMS))
	}
	return nil
}

// Table7 compares Gram-Schmidt procedures on the DOrtho phase for the
// five large graphs (paper Table 7).
func Table7(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	fprintf(w, "Table 7: D-orthogonalization, panel MGS (default) vs CGS, s=%d\n", cfg.Subspace)
	fprintf(w, "%-10s %12s %12s %9s\n", "graph", "MGS (s)", "CGS (s)", "speedup")
	for _, ng := range LargeCollection(cfg.Factor) {
		g := ng.G
		s := cfg.Subspace
		b := linalg.NewDense(g.NumV, s)
		pivot.PhaseBudget(parallel.Live(), g, b, 0, pivot.KCenters, bfs.Options{}, nil, nil, nil)
		deg := g.WeightedDegrees()
		tMGS := minTime(cfg.Reps, func() { ortho.DOrthogonalizeBudget(parallel.Live(), b, deg, ortho.MGS, nil) })
		tCGS := minTime(cfg.Reps, func() { ortho.DOrthogonalizeBudget(parallel.Live(), b, deg, ortho.CGS, nil) })
		fprintf(w, "%-10s %12.4f %12.4f %8.1fx\n",
			ng.Name, seconds(tMGS), seconds(tCGS), ratio(tMGS, tCGS))
	}
	return nil
}

func mustParHDE(ng NamedGraph, opt core.Options) *core.Report {
	_, rep, err := core.ParHDE(ng.G, opt)
	if err != nil {
		panic("exp: " + ng.Name + ": " + err.Error())
	}
	return rep
}

func mustRun(f func(*graph.CSR, core.Options) (*core.Layout, *core.Report, error), ng NamedGraph, opt core.Options) *core.Report {
	_, rep, err := f(ng.G, opt)
	if err != nil {
		panic("exp: " + ng.Name + ": " + err.Error())
	}
	return rep
}
