// Package repro_bench holds the testing.B harness: one benchmark per table
// and figure of the paper (see DESIGN.md's experiment index), plus kernel
// ablations for the design choices the paper calls out. Absolute numbers
// depend on the host; the shapes to check are who wins and by what factor.
//
// The richer multi-configuration sweeps (core counts, Δ values, drawings)
// live in cmd/hdebench; these benchmarks pin one representative
// configuration per experiment so `go test -bench=.` regenerates every
// headline comparison.
package repro_bench

import (
	"os"
	"sync"
	"testing"

	"repro/internal/bfs"
	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/fibbin"
	"repro/internal/forcedirected"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/ortho"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/pivot"
	"repro/internal/sssp"
	"repro/internal/stress"
)

// Benchmark datasets, built once. Scales are chosen so the full -bench=.
// pass completes in minutes on a laptop while keeping every graph large
// enough that phase times dominate fixed overheads.
var (
	once sync.Once

	gKron  *graph.CSR // skewed low-diameter (kron27 analogue)
	gUrand *graph.CSR // uniform random (urand27 analogue)
	gWeb   *graph.CSR // locality-ordered (sk-2005 analogue)
	gRoad  *graph.CSR // high-diameter sparse (road_usa analogue)
	gPlate *graph.CSR // barth5 analogue
	gSmall *graph.CSR // small mesh for 30-source pivot study
)

// TestMain builds every dataset before any benchmark's timer starts.
func TestMain(m *testing.M) {
	datasets()
	os.Exit(m.Run())
}

func datasets() {
	once.Do(func() {
		gKron = gen.Kron(14, 16, 102)
		gUrand = gen.Urand(14, 16, 101)
		gWeb = gen.WebGraph(40000, 24, 103)
		gRoad = gen.Road(220, 220, 105)
		gPlate = gen.PlateWithHoles(120, 120)
		gSmall = gen.Mesh3D(24, 24, 24)
	})
}

func reportGraph(b *testing.B, g *graph.CSR) {
	b.ReportMetric(float64(g.NumEdges()), "edges")
}

// --- Table 2: preprocessing pipeline ------------------------------------

func BenchmarkTable2Preprocess(b *testing.B) {
	// Times the §4.1 pipeline itself: symmetrize, dedupe, largest
	// component, relabel — on a raw multigraph edge list.
	rng := gen.NewRNG(7)
	n := 1 << 15
	edges := make([]graph.Edge, 8*n)
	for i := range edges {
		edges[i] = graph.Edge{U: rng.Int32n(int32(n)), V: rng.Int32n(int32(n))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := graph.FromEdges(n, edges, graph.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		reportGraph(b, g)
	}
}

// --- Figure 2: adjacency gap distributions ------------------------------

func BenchmarkFig2Gaps(b *testing.B) {
	datasets()
	for _, c := range []struct {
		name string
		g    *graph.CSR
	}{{"web_local", gWeb}, {"urand", gUrand}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := fibbin.New(int64(c.g.NumV))
				graph.Gaps(c.g, h.Add)
				b.ReportMetric(float64(graph.GapSummary(c.g).Mean), "mean-gap")
			}
		})
	}
}

// --- Table 3: ParHDE vs prior implementation ----------------------------

func BenchmarkTable3ParHDE(b *testing.B) {
	datasets()
	opt := core.Options{Subspace: 10, Seed: 42, SkipConnectivityCheck: true}
	for i := 0; i < b.N; i++ {
		if _, _, err := core.ParHDE(gKron, opt); err != nil {
			b.Fatal(err)
		}
	}
	reportGraph(b, gKron)
}

func BenchmarkTable3PriorBaseline(b *testing.B) {
	datasets()
	opt := core.Options{Subspace: 10, Seed: 42, SkipConnectivityCheck: true}
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Prior(gKron, opt); err != nil {
			b.Fatal(err)
		}
	}
	reportGraph(b, gKron)
}

// --- Table 4 / Figure 3 / Figure 4: ParHDE across graph families --------

func BenchmarkTable4ParHDE(b *testing.B) {
	datasets()
	opt := core.Options{Subspace: 10, Seed: 42, SkipConnectivityCheck: true}
	for _, c := range []struct {
		name string
		g    *graph.CSR
	}{
		{"urand", gUrand}, {"kron", gKron}, {"web", gWeb}, {"road", gRoad},
	} {
		b.Run(c.name, func(b *testing.B) {
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				var err error
				_, rep, err = core.ParHDE(c.g, opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			// Figure 3's split, surfaced as metrics.
			bd := rep.Breakdown
			bp, tp, op, _ := bd.Percentages()
			b.ReportMetric(bp, "bfs%")
			b.ReportMetric(tp, "tripleprod%")
			b.ReportMetric(op, "dortho%")
		})
	}
}

// --- Table 5 / Figure 6: PHDE and PivotMDS -------------------------------

func BenchmarkTable5PHDE(b *testing.B) {
	datasets()
	opt := core.Options{Subspace: 10, Seed: 42, SkipConnectivityCheck: true}
	for i := 0; i < b.N; i++ {
		if _, _, err := core.PHDE(gKron, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5PivotMDS(b *testing.B) {
	datasets()
	opt := core.Options{Subspace: 10, Seed: 42, SkipConnectivityCheck: true}
	for i := 0; i < b.N; i++ {
		if _, _, err := core.PivotMDS(gKron, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 6: pivot selection strategies ---------------------------------

func BenchmarkTable6Pivots(b *testing.B) {
	datasets()
	const sources = 30
	for _, c := range []struct {
		name  string
		strat pivot.Strategy
	}{{"kcenters", pivot.KCenters}, {"random", pivot.Random}} {
		b.Run(c.name, func(b *testing.B) {
			m := linalg.NewDense(gSmall.NumV, sources)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pivot.Phase(gSmall, m, 0, c.strat, bfs.Options{}, nil, nil)
			}
		})
	}
}

// --- Table 7: MGS vs CGS --------------------------------------------------

func BenchmarkTable7Ortho(b *testing.B) {
	datasets()
	s := 30
	m := linalg.NewDense(gKron.NumV, s)
	pivot.Phase(gKron, m, 0, pivot.KCenters, bfs.Options{}, nil, nil)
	deg := gKron.WeightedDegrees()
	for _, c := range []struct {
		name   string
		method ortho.Method
	}{{"MGS", ortho.MGS}, {"CGS", ortho.CGS}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ortho.DOrthogonalizeBudget(parallel.Live(), m, deg, c.method, nil)
			}
		})
	}
}

// --- Figure 1: HDE vs full spectral computation ---------------------------

func BenchmarkFig1ParHDE(b *testing.B) {
	datasets()
	opt := core.Options{Subspace: 50, Seed: 1, SkipConnectivityCheck: true}
	for i := 0; i < b.N; i++ {
		if _, _, err := core.ParHDE(gPlate, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1SpectralBaseline(b *testing.B) {
	datasets()
	for i := 0; i < b.N; i++ {
		eigen.WalkPower(gPlate, 2, eigen.PowerOptions{Seed: 1, MaxIters: 2000, Tol: 1e-8})
	}
}

// --- Figure 5: subspace dimension scaling (s=10 vs s=50) ------------------

func BenchmarkFig5Subspace(b *testing.B) {
	datasets()
	for _, s := range []int{10, 50} {
		b.Run(map[int]string{10: "s10", 50: "s50"}[s], func(b *testing.B) {
			opt := core.Options{Subspace: s, Seed: 42, SkipConnectivityCheck: true}
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				var err error
				_, rep, err = core.ParHDE(gWeb, opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			_, _, op, _ := rep.Breakdown.Percentages()
			b.ReportMetric(op, "dortho%") // quadratic in s: grows sharply at s=50
		})
	}
}

// --- Figure 7: alternative drawing algorithms -----------------------------

func BenchmarkFig7RandomPivotParHDE(b *testing.B) {
	datasets()
	opt := core.Options{Subspace: 50, Seed: 3, Pivots: pivot.Random, SkipConnectivityCheck: true}
	for i := 0; i < b.N; i++ {
		if _, _, err := core.ParHDE(gPlate, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 8: interactive zoom -------------------------------------------

func BenchmarkFig8Zoom(b *testing.B) {
	datasets()
	for i := 0; i < b.N; i++ {
		if _, err := core.Zoom(gPlate, int32(gPlate.NumV/2), 10, core.Options{Subspace: 20, Seed: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §4.4: SSSP vs BFS phase ----------------------------------------------

func BenchmarkSSSPvsBFS(b *testing.B) {
	datasets()
	unit := gRoad.WithUnitWeights()
	weighted := gen.WithRandomWeights(gRoad, 100, 7)
	b.Run("bfs", func(b *testing.B) {
		opt := core.Options{Subspace: 10, Seed: 42, SkipConnectivityCheck: true}
		for i := 0; i < b.N; i++ {
			if _, _, err := core.ParHDE(gRoad, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sssp_unit", func(b *testing.B) {
		opt := core.Options{Subspace: 10, Seed: 42, Delta: 1, SkipConnectivityCheck: true}
		for i := 0; i < b.N; i++ {
			if _, _, err := core.ParHDE(unit, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sssp_random_w", func(b *testing.B) {
		opt := core.Options{Subspace: 10, Seed: 42, SkipConnectivityCheck: true}
		for i := 0; i < b.N; i++ {
			if _, _, err := core.ParHDE(weighted, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- §4.4: vertex ordering and the LS kernel -------------------------------

func BenchmarkPermutationLS(b *testing.B) {
	datasets()
	perm := graph.RandomPermutation(gWeb.NumV, 99)
	gp, err := graph.Permute(gWeb, perm)
	if err != nil {
		b.Fatal(err)
	}
	s := linalg.NewDense(gWeb.NumV, 10)
	for i := range s.Data {
		s.Data[i] = float64(i % 13)
	}
	for _, c := range []struct {
		name string
		g    *graph.CSR
	}{{"locality_order", gWeb}, {"random_perm", gp}} {
		deg := c.g.WeightedDegrees()
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lapMul(c.g, deg, s)
			}
		})
	}
}

// --- §4.5.3: refinement vs cold power iteration ----------------------------

func BenchmarkRefineVsPower(b *testing.B) {
	datasets()
	b.Run("parhde_plus_refine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lay, _, err := core.ParHDE(gPlate, core.Options{Subspace: 50, Seed: 1, SkipConnectivityCheck: true})
			if err != nil {
				b.Fatal(err)
			}
			core.Refine(gPlate, lay, 30, 0)
		}
	})
	b.Run("cold_power", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eigen.WalkPower(gPlate, 2, eigen.PowerOptions{Seed: 9, MaxIters: 1000, Tol: 1e-7})
		}
	})
}

// --- Kernel ablations -------------------------------------------------------

func BenchmarkBFSDirection(b *testing.B) {
	datasets()
	for _, c := range []struct {
		name string
		opt  bfs.Options
	}{
		{"direction_optimizing", bfs.Options{}},
		{"top_down_only", bfs.Options{ForceTopDown: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			runner := bfs.NewRunner(gKron, c.opt, nil, parallel.Live())
			dist := make([]int32, gKron.NumV)
			b.ResetTimer()
			var scanned int64
			for i := 0; i < b.N; i++ {
				st := runner.Distances(0, dist)
				scanned = st.ScannedEdges
			}
			b.ReportMetric(float64(scanned), "edges-scanned")
		})
	}
}

func BenchmarkLSKernel(b *testing.B) {
	datasets()
	deg := gKron.WeightedDegrees()
	s := linalg.NewDense(gKron.NumV, 10)
	for i := range s.Data {
		s.Data[i] = float64(i % 17)
	}
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lapMul(gKron, deg, s)
		}
	})
	b.Run("explicit_laplacian", func(b *testing.B) {
		lap := linalg.NewExplicitLaplacian(gKron)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lap.MulDense(s)
		}
	})
}

func BenchmarkDeltaStepping(b *testing.B) {
	datasets()
	g := gen.WithRandomWeights(gRoad, 100, 7)
	dist := make([]float64, g.NumV)
	for _, delta := range []struct {
		name string
		v    float64
	}{{"delta10", 10}, {"delta50", 50}} {
		b.Run(delta.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sssp.DeltaStepping(g, 0, delta.v, dist)
			}
		})
	}
}

func BenchmarkGemmAtB(b *testing.B) {
	datasets()
	n, s := gKron.NumV, 10
	x := linalg.NewDense(n, s)
	for i := range x.Data {
		x.Data[i] = float64(i%11) * 0.3
	}
	for i := 0; i < b.N; i++ {
		linalg.AtBPackedBudget(parallel.Live(), x, x, nil, nil, nil)
	}
}

// --- §5 future work: multilevel ParHDE --------------------------------------

func BenchmarkMultilevelParHDE(b *testing.B) {
	datasets()
	b.Run("single_level", func(b *testing.B) {
		opt := core.Options{Subspace: 50, Seed: 1, SkipConnectivityCheck: true}
		for i := 0; i < b.N; i++ {
			if _, _, err := core.ParHDE(gPlate, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multilevel", func(b *testing.B) {
		opt := core.MultilevelOptions{
			Base:    core.Options{Subspace: 50, Seed: 1},
			Coarsen: coarsen.Options{MinVertices: 500, Seed: 1},
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := core.MultilevelParHDE(gPlate, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- §4.5.4: stress majorization seeding ------------------------------------

func BenchmarkStressSeeding(b *testing.B) {
	small := gen.PlateWithHoles(40, 40)
	b.Run("hde_seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lay, _, err := core.ParHDE(small, core.Options{Subspace: 20, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			res, err := stress.Full(small, lay, stress.Options{MaxIters: 5, Tol: 0})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Stress, "final-stress")
		}
	})
	b.Run("random_seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lay := core.RandomLayout(small.NumV, 2, 7)
			res, err := stress.Full(small, lay, stress.Options{MaxIters: 5, Tol: 0})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Stress, "final-stress")
		}
	})
}

// --- §4.2 related work: force-directed baseline -------------------------------

func BenchmarkForceDirectedBaseline(b *testing.B) {
	datasets()
	for i := 0; i < b.N; i++ {
		forcedirected.Layout(gPlate, forcedirected.Options{Iterations: 50, Seed: 2})
	}
}

// --- §4.5.3: eigensolver seeding ----------------------------------------------

func BenchmarkSubspaceSeeded(b *testing.B) {
	small := gen.PlateWithHoles(50, 50)
	const tol = 1e-4
	b.Run("hde_seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lay, _, err := core.ParHDE(small, core.Options{Subspace: 30, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			res := eigen.SubspaceIterate(small, 2, eigen.SubspaceOptions{Seed: 3, MaxIters: 50000, Tol: tol, Init: lay.Coords})
			b.ReportMetric(float64(res.Iterations), "iterations")
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := eigen.SubspaceIterate(small, 2, eigen.SubspaceOptions{Seed: 3, MaxIters: 50000, Tol: tol})
			b.ReportMetric(float64(res.Iterations), "iterations")
		}
	})
}

// --- §4.5.4: partitioning -------------------------------------------------------

func BenchmarkPartitionPipeline(b *testing.B) {
	datasets()
	lay, _, err := core.ParHDE(gSmall, core.Options{Subspace: 20, Seed: 3, SkipConnectivityCheck: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		part, err := partition.CoordinateBisection(lay.Clone(), 3)
		if err != nil {
			b.Fatal(err)
		}
		partition.Refine(gSmall, part, partition.RefineOptions{})
		st := partition.EvaluateCut(gSmall, part)
		b.ReportMetric(float64(st.CutEdges), "cut-edges")
	}
}

// --- MS-BFS and tiled-LS kernel ablations --------------------------------------

func BenchmarkMSBFSvsSerialBatch(b *testing.B) {
	datasets()
	sources := make([]int32, 64)
	for i := range sources {
		sources[i] = int32((i * 997) % gKron.NumV)
	}
	b.Run("msbfs_64", func(b *testing.B) {
		dists := make([][]int32, 64)
		for i := range dists {
			dists[i] = make([]int32, gKron.NumV)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bfs.MSBFS(parallel.Live(), gKron, sources, dists, nil, bfs.Options{})
		}
	})
	b.Run("serial_64", func(b *testing.B) {
		dist := make([]int32, gKron.NumV)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, src := range sources {
				bfs.Serial(gKron, src, dist)
			}
		}
	})
}

func BenchmarkLSTiled(b *testing.B) {
	datasets()
	deg := gWeb.WeightedDegrees()
	s := linalg.NewDense(gWeb.NumV, 50)
	for i := range s.Data {
		s.Data[i] = float64(i % 23)
	}
	b.Run("columnwise_s50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := linalg.NewDense(s.Rows, s.Cols)
			for j := 0; j < s.Cols; j++ {
				linalg.LapMulVecBudget(parallel.Live(), gWeb, deg, s.Col(j), p.Col(j))
			}
		}
	})
	b.Run("tiled_s50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lapMul(gWeb, deg, s)
		}
	})
}

// lapMul is the production L·S kernel with fresh buffers.
func lapMul(g *graph.CSR, deg []float64, s *linalg.Dense) *linalg.Dense {
	return linalg.LapMulDenseTiledPackedBudget(parallel.Live(), g, deg, s, nil, nil, nil)
}

// --- Coupled vs decoupled pipeline ------------------------------------------------

func BenchmarkCoupledPipeline(b *testing.B) {
	datasets()
	for _, c := range []struct {
		name    string
		coupled bool
	}{{"decoupled", false}, {"coupled", true}} {
		b.Run(c.name, func(b *testing.B) {
			opt := core.Options{Subspace: 30, Seed: 1, Coupled: c.coupled, SkipConnectivityCheck: true}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.ParHDE(gPlate, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Lanczos vs power-iteration baseline -------------------------------------------

func BenchmarkSpectralBaselines(b *testing.B) {
	datasets()
	b.Run("power", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eigen.WalkPower(gPlate, 2, eigen.PowerOptions{Seed: 1, MaxIters: 2000, Tol: 1e-8})
		}
	})
	b.Run("lanczos", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eigen.Lanczos(gPlate, 2, eigen.LanczosOptions{Seed: 1, Tol: 1e-8})
		}
	})
}

// --- §4.5.3: LOBPCG (the paper's named eigensolver) ---------------------------------

func BenchmarkLOBPCGSeeding(b *testing.B) {
	small := gen.PlateWithHoles(50, 50)
	const tol = 1e-6
	b.Run("hde_seed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lay, _, err := core.ParHDE(small, core.Options{Subspace: 30, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			res := eigen.LOBPCG(small, 2, eigen.LOBPCGOptions{Seed: 3, MaxIters: 50000, Tol: tol, Init: lay.Coords})
			b.ReportMetric(float64(res.Iterations), "iterations")
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := eigen.LOBPCG(small, 2, eigen.LOBPCGOptions{Seed: 3, MaxIters: 50000, Tol: tol})
			b.ReportMetric(float64(res.Iterations), "iterations")
		}
	})
}

// --- Figure 3 / Figure 6: breakdown benches (explicit per-figure mapping) -----

func BenchmarkFig3Breakdown(b *testing.B) {
	datasets()
	for _, c := range []struct {
		name string
		run  func() *core.Report
	}{
		{"parhde", func() *core.Report {
			_, rep, err := core.ParHDE(gKron, core.Options{Subspace: 10, Seed: 42, SkipConnectivityCheck: true})
			if err != nil {
				b.Fatal(err)
			}
			return rep
		}},
		{"prior", func() *core.Report {
			_, rep, err := core.Prior(gKron, core.Options{Subspace: 10, Seed: 42, SkipConnectivityCheck: true})
			if err != nil {
				b.Fatal(err)
			}
			return rep
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				rep = c.run()
			}
			bp, tp, op, _ := rep.Breakdown.Percentages()
			b.ReportMetric(bp, "bfs%")
			b.ReportMetric(tp, "tripleprod%")
			b.ReportMetric(op, "dortho%")
		})
	}
}

func BenchmarkFig6Breakdowns(b *testing.B) {
	datasets()
	for _, c := range []struct {
		name string
		f    func(*graph.CSR, core.Options) (*core.Layout, *core.Report, error)
	}{{"pivotmds", core.PivotMDS}, {"phde", core.PHDE}} {
		b.Run(c.name, func(b *testing.B) {
			opt := core.Options{Subspace: 10, Seed: 42, SkipConnectivityCheck: true}
			var rep *core.Report
			for i := 0; i < b.N; i++ {
				var err error
				_, rep, err = c.f(gKron, opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			bd := rep.Breakdown
			tot := float64(bd.Total)
			b.ReportMetric(100*float64(bd.BFS())/tot, "bfs%")
			b.ReportMetric(100*float64(bd.Centering)/tot, "center%")
			b.ReportMetric(100*float64(bd.Gemm+bd.Project)/tot, "matmul%")
		})
	}
}

// --- Figure 4: core-count scaling (one data point per GOMAXPROCS setting) -----

func BenchmarkFig4ScalingPoint(b *testing.B) {
	// go test -cpu 1,2,4 -bench Fig4ScalingPoint sweeps the core counts the
	// way the paper's Figure 4 does; each -cpu value is one curve point.
	datasets()
	opt := core.Options{Subspace: 10, Seed: 42, SkipConnectivityCheck: true}
	for i := 0; i < b.N; i++ {
		if _, _, err := core.ParHDE(gUrand, opt); err != nil {
			b.Fatal(err)
		}
	}
}
