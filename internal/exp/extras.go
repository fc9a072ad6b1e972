package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// SSSPExperiment reproduces the §4.4 weighted-graph study on the road
// analogue: unit-weight SSSP vs BFS-based ParHDE (paper: 18% slower), and
// random integer weights across a Δ sweep (paper: ≥ 3.66× slower).
func SSSPExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	side := scaled(220, cfg.Factor)
	road := gen.Road(side, side, 105)
	opt := core.Options{Subspace: 10, Seed: 42}

	tBFS := minTime(cfg.Reps, func() {
		if _, _, err := core.ParHDE(road, opt); err != nil {
			panic(err)
		}
	})
	fprintf(w, "SSSP experiment (road analogue, n=%d m=%d, s=10)\n", road.NumV, road.NumEdges())
	fprintf(w, "%-28s %12s %10s\n", "configuration", "time (s)", "vs BFS")
	fprintf(w, "%-28s %12.4f %9.2fx\n", "unweighted BFS", seconds(tBFS), 1.0)

	unit := road.WithUnitWeights()
	uopt := opt
	uopt.Delta = 1
	tUnit := minTime(cfg.Reps, func() {
		if _, _, err := core.ParHDE(unit, uopt); err != nil {
			panic(err)
		}
	})
	fprintf(w, "%-28s %12.4f %9.2fx\n", "SSSP, unit weights Δ=1", seconds(tUnit), ratio(tUnit, tBFS))

	weighted := gen.WithRandomWeights(road, 100, 7)
	for _, delta := range []float64{1, 10, 50, 0 /* heuristic */} {
		wopt := opt
		wopt.Delta = delta
		label := "SSSP, rand weights Δ=heur"
		if delta > 0 {
			label = fmt.Sprintf("SSSP, rand weights Δ=%g", delta)
		}
		tW := minTime(cfg.Reps, func() {
			if _, _, err := core.ParHDE(weighted, wopt); err != nil {
				panic(err)
			}
		})
		fprintf(w, "%-28s %12.4f %9.2fx\n", label, seconds(tW), ratio(tW, tBFS))
	}
	return nil
}

// PermExperiment reproduces the §4.4 vertex-ordering study: randomly
// permuting a locality-ordered graph slows the LS step (paper: 6.8× on
// sk-2005) and the whole run (paper: 3.5×). Two inputs are measured: the
// web/sk analogue, and a large 2-D grid whose row-major ordering is the
// ideal-locality extreme. How much of the slowdown materializes depends on
// the host's last-level cache relative to n×8 bytes per dense column —
// crank Factor until the column no longer fits to see the full effect.
func PermExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	inputs := []NamedGraph{
		{"web", "sk-2005", gen.WebGraph(scaled(200000, cfg.Factor), 16, 103)},
		{"grid", "ordered mesh", gen.Grid2D(scaled(1000, cfg.Factor), scaled(1000, cfg.Factor))},
	}
	opt := core.Options{Subspace: 10, Seed: 42}
	fprintf(w, "Vertex-ordering experiment (paper: LS 6.8x, overall 3.5x slower after permutation)\n")
	fprintf(w, "%-8s %-22s %12s %12s %12s\n", "graph", "ordering", "total (s)", "LS (s)", "mean gap")
	for _, ng := range inputs {
		perm := graph.RandomPermutation(ng.G.NumV, 99)
		gp, err := graph.Permute(ng.G, perm, parallel.Live())
		if err != nil {
			return err
		}
		measure := func(gg *graph.CSR) (total, ls time.Duration) {
			total = minTime(cfg.Reps, func() {
				_, rep, err := core.ParHDE(gg, opt)
				if err != nil {
					panic(err)
				}
				ls = rep.Breakdown.LS
			})
			return total, ls
		}
		tOrig, lsOrig := measure(ng.G)
		tPerm, lsPerm := measure(gp)
		fprintf(w, "%-8s %-22s %12.4f %12.4f %12.0f\n", ng.Name, "original (locality)", seconds(tOrig), seconds(lsOrig), graph.GapSummary(ng.G).Mean)
		fprintf(w, "%-8s %-22s %12.4f %12.4f %12.0f\n", ng.Name, "random permutation", seconds(tPerm), seconds(lsPerm), graph.GapSummary(gp).Mean)
		fprintf(w, "%-8s slowdown: LS %.1fx, overall %.1fx\n", ng.Name, ratio(lsPerm, lsOrig), ratio(tPerm, tOrig))
	}
	return nil
}
