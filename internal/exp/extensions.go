package exp

import (
	"io"
	"time"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/order"
	"repro/internal/parallel"
)

// refineTol is the residual ‖D⁻¹A·x − λx‖_D, in the D-norm, at which
// both runs of the §4.5.3 comparison stop.
const refineTol = 1e-6

// refineRun is one side of the §4.5.3 comparison.
type refineRun struct {
	eigen.LOBPCGResult
	Time time.Duration
}

// seededVsCold runs LOBPCG (k = 2) on g to refineTol twice: seeded with
// the ParHDE layout (s = 50) and from a random start. The seeded run's
// time includes computing the layout.
func seededVsCold(g *graph.CSR) (seeded, cold refineRun, err error) {
	start := time.Now()
	lay, _, err := core.ParHDE(g, core.Options{Subspace: 50, Seed: 1})
	if err != nil {
		return seeded, cold, err
	}
	opt := eigen.LOBPCGOptions{Seed: 3, MaxIters: 100000, Tol: refineTol, Init: lay.Coords}
	seeded.LOBPCGResult = eigen.LOBPCG(g, 2, opt)
	seeded.Time = time.Since(start)
	start = time.Now()
	opt.Init = nil
	cold.LOBPCGResult = eigen.LOBPCG(g, 2, opt)
	cold.Time = time.Since(start)
	return seeded, cold, nil
}

// RefineExperiment measures §4.5.3's proposal, ParHDE as "a
// preprocessing step for modern eigensolvers such as LOBPCG": LOBPCG
// iterations to one residual tolerance on the plate mesh, seeded with the
// ParHDE layout versus started cold.
func RefineExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	g := plate(cfg)
	fprintf(w, "Eigensolver seeding (plate mesh, n=%d m=%d, LOBPCG k=2 to residual %.0e)\n", g.NumV, g.NumEdges(), refineTol)
	seeded, cold, err := seededVsCold(g)
	if err != nil {
		return err
	}
	fprintf(w, "%-28s %12s %12s %12s\n", "start", "iterations", "residual", "time (s)")
	fprintf(w, "%-28s %12d %12.2e %12.4f\n", "ParHDE seed (incl. layout)", seeded.Iterations, seeded.Residual, seconds(seeded.Time))
	fprintf(w, "%-28s %12d %12.2e %12.4f\n", "cold", cold.Iterations, cold.Residual, seconds(cold.Time))
	fprintf(w, "seeding cuts iterations %.1fx, time %.1fx\n",
		float64(cold.Iterations)/float64(seeded.Iterations), ratio(cold.Time, seeded.Time))
	return nil
}

// AlphaBetaExperiment sweeps the direction-optimizing BFS switch
// thresholds (Beamer's α and β, defaulting to the GAP values 15 and 18)
// on a skewed low-diameter graph and on a high-diameter road network —
// the ablation behind §3.1's choice of the heuristic. The last row of
// each sweep is pinned top-down, so γ (Table 1's work-reduction factor)
// is each row's scanned count over the last row's; the rule must keep it
// ≤ 1 on both graphs.
func AlphaBetaExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	large := LargeCollection(cfg.Factor)
	configs := []bfs.Options{
		{Alpha: 1, Beta: 18}, {Alpha: 15, Beta: 18}, {Alpha: 64, Beta: 18}, {Alpha: 15, Beta: 2}, {Alpha: 15, Beta: 64},
		{Alpha: 15, Beta: 18, ForceTopDown: true},
	}
	for _, ng := range []NamedGraph{large[1], large[4]} { // kron, road
		g := ng.G
		dist := make([]int32, g.NumV)
		fprintf(w, "Direction-optimizing switch sweep (%s analogue, n=%d m=%d)\n", ng.Name, g.NumV, g.NumEdges())
		fprintf(w, "%8s %8s %12s %16s %10s %9s\n", "alpha", "beta", "time (s)", "edges scanned", "bottom-up", "switches")
		for _, opt := range configs {
			runner := bfs.NewRunner(g, opt, nil, parallel.Live())
			var st bfs.Stats
			t := minTime(cfg.Reps, func() { st = runner.Distances(0, dist) })
			if opt.ForceTopDown {
				fprintf(w, "%17s %12.4f %16d %10d %9d\n", "top-down only", seconds(t), st.ScannedEdges, st.BottomUpSteps, st.Switches)
				continue
			}
			fprintf(w, "%8d %8d %12.4f %16d %10d %9d\n", opt.Alpha, opt.Beta, seconds(t), st.ScannedEdges, st.BottomUpSteps, st.Switches)
		}
	}
	return nil
}

// ReorderExperiment closes the §4.4 ordering loop: take the web analogue
// with its ids randomly scrambled (the configuration that slows LS), then
// recover locality with (a) RCM and (b) a Hilbert order over ParHDE's own
// coordinates, and measure mean gap, bandwidth, and the LS kernel time.
func ReorderExperiment(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	orig := gen.WebGraph(scaled(100000, cfg.Factor), 16, 103)
	scrambled, err := graph.Permute(orig, graph.RandomPermutation(orig.NumV, 99), parallel.Live())
	if err != nil {
		return err
	}
	fprintf(w, "Locality-recovering reorderings (web analogue, n=%d m=%d)\n", orig.NumV, orig.NumEdges())
	fprintf(w, "%-24s %12s %12s %12s\n", "ordering", "mean gap", "bandwidth", "LS time (s)")

	lsTime := func(g *graph.CSR) float64 {
		deg := g.WeightedDegrees()
		s := linalg.NewDense(g.NumV, 10)
		for i := range s.Data {
			s.Data[i] = float64(i % 13)
		}
		return seconds(minTime(cfg.Reps, func() {
			linalg.LapMulDenseTiledPackedBudget(parallel.Live(), g, deg, s, nil, nil, nil)
		}))
	}
	show := func(name string, g *graph.CSR) {
		fprintf(w, "%-24s %12.0f %12d %12.4f\n",
			name, graph.GapSummary(g).Mean, order.Bandwidth(g), lsTime(g))
	}
	show("original (crawl order)", orig)
	show("random permutation", scrambled)

	rcmPerm := order.RCM(scrambled)
	rcmG, err := graph.Permute(scrambled, rcmPerm, parallel.Live())
	if err != nil {
		return err
	}
	show("RCM", rcmG)

	lay, _, err := core.ParHDE(scrambled, core.Options{Subspace: 10, Seed: 1})
	if err != nil {
		return err
	}
	hilPerm, err := order.HilbertFromLayout(lay, 12)
	if err != nil {
		return err
	}
	hilG, err := graph.Permute(scrambled, hilPerm, parallel.Live())
	if err != nil {
		return err
	}
	show("Hilbert(ParHDE coords)", hilG)
	return nil
}
