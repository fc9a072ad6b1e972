package exp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/fibbin"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pivot"
	"repro/internal/quality"
	"repro/internal/render"
	"repro/internal/workspace"
)

// plate returns the barth5 analogue used by the drawing figures.
func plate(cfg Config) *graph.CSR {
	side := scaled(120, cfg.Factor)
	return gen.PlateWithHoles(side, side)
}

// savePNG writes a drawing when cfg.OutDir is set.
func savePNG(cfg Config, name string, g *graph.CSR, l *core.Layout) (string, error) {
	if cfg.OutDir == "" {
		return "(not written; set -out)", nil
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.OutDir, name+".png")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := render.Draw(f, g, l, render.Options{Size: 900}); err != nil {
		return "", err
	}
	return path, nil
}

// fig1Tol is the residual ‖D⁻¹A·x − λx‖_D, in the D-norm, to which
// LOBPCG computes Figure 1's spectral reference.
const fig1Tol = 1e-6

// Fig1 reproduces Figure 1: the barth5 analogue drawn by ParHDE (top) and
// by the dominant eigenvectors of the normalized adjacency matrix
// (bottom), computed by LOBPCG to fig1Tol, with quality metrics and the
// largest principal angle between the two spans showing HDE approximates
// the spectral reference at a fraction of the cost.
func Fig1(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	g := plate(cfg)
	fprintf(w, "Figure 1: plate-with-holes (barth5 analogue), n=%d m=%d\n", g.NumV, g.NumEdges())

	start := time.Now()
	hdeLay, _, err := core.ParHDE(g, core.Options{Subspace: 50, Seed: 1})
	if err != nil {
		return err
	}
	tHDE := time.Since(start)

	start = time.Now()
	ref := eigen.LOBPCG(g, 2, eigen.LOBPCGOptions{Seed: 1, MaxIters: 100000, Tol: fig1Tol})
	tSpec := time.Since(start)
	if ref.Residual > fig1Tol {
		return fmt.Errorf("fig1: LOBPCG stopped at residual %.2e after %d iterations, above %.0e", ref.Residual, ref.Iterations, fig1Tol)
	}
	spectral := &core.Layout{Coords: ref.Vectors}
	angles, err := quality.PrincipalAngles(hdeLay.Coords, ref.Vectors, g.WeightedDegrees())
	if err != nil {
		return err
	}

	qH := core.Evaluate(g, hdeLay)
	qS := core.Evaluate(g, spectral)
	dcH := core.DistanceCorrelation(g, hdeLay, 16, 9)
	dcS := core.DistanceCorrelation(g, spectral, 16, 9)
	p1, err := savePNG(cfg, "fig1_parhde", g, hdeLay)
	if err != nil {
		return err
	}
	p2, err := savePNG(cfg, "fig1_spectral", g, spectral)
	if err != nil {
		return err
	}
	fprintf(w, "%-22s %10s %12s %10s %9s   %s\n", "method", "time (s)", "Hall ratio", "edge CV", "dist-corr", "drawing")
	fprintf(w, "%-22s %10.4f %12.5f %10.3f %9.3f   %s\n", "ParHDE (top)", seconds(tHDE), qH.HallRatio, qH.EdgeLengthCV, dcH, p1)
	fprintf(w, "%-22s %10.4f %12.5f %10.3f %9.3f   %s\n", "spectral (bottom)", seconds(tSpec), qS.HallRatio, qS.EdgeLengthCV, dcS, p2)
	fprintf(w, "spectral reference: LOBPCG, %d iterations, residual %.2e (tolerance %.0e)\n", ref.Iterations, ref.Residual, fig1Tol)
	fprintf(w, "ParHDE span vs reference: largest D-principal angle %.4f rad\n", angles[len(angles)-1])
	fprintf(w, "HDE speedup: %.1fx over LOBPCG\n", ratio(tSpec, tHDE))
	return nil
}

// Fig2 reproduces Figure 2: the adjacency-list gap distribution of the
// five large graphs under Fibonacci binning.
func Fig2(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	fprintf(w, "Figure 2: adjacency gap distribution (Fibonacci bins; series 'graph upper-bound count')\n")
	for _, ng := range LargeCollection(cfg.Factor) {
		h := fibbin.New(int64(ng.G.NumV))
		graph.Gaps(ng.G, h.Add)
		// Identity check from the paper: Σc = 2m − n (for vertices with
		// nonzero degree, which preprocessing guarantees here).
		fprintf(w, "# %s: total gaps %d (2m−n = %d), mean gap %.1f\n",
			ng.Name, h.Total(), 2*ng.G.NumEdges()-int64(ng.G.NumV), graph.GapSummary(ng.G).Mean)
		if err := h.Fprint(w, ng.Name); err != nil {
			return err
		}
	}
	return nil
}

// Fig3 reproduces Figure 3: component-wise execution-time percentages for
// ParHDE on all threads (left), ParHDE on one thread (middle), and the
// prior implementation (right), s = 10.
func Fig3(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	opt := core.Options{Subspace: 10, Seed: 42}
	fprintf(w, "Figure 3: execution-time breakdown (%% of total), s=10\n")
	fprintf(w, "%-10s %-10s %7s %11s %8s %7s\n", "config", "graph", "BFS%", "TripleProd%", "DOrtho%", "Other%")
	for _, ng := range LargeCollection(cfg.Factor) {
		var repPar, repSer, repPrior *core.Report
		withThreads(cfg.MaxThreads, func() { repPar = mustParHDE(ng, opt) })
		withThreads(1, func() { repSer = mustParHDE(ng, opt) })
		repPrior = mustRun(core.Prior, ng, opt)
		for _, row := range []struct {
			cfg string
			rep *core.Report
		}{
			{"parallel", repPar}, {"1-thread", repSer}, {"prior", repPrior},
		} {
			b, t, o, r := row.rep.Breakdown.Percentages()
			fprintf(w, "%-10s %-10s %6.1f%% %10.1f%% %7.1f%% %6.1f%%\n", row.cfg, ng.Name, b, t, o, r)
		}
	}
	return nil
}

// Fig4 reproduces Figure 4: relative scaling of ParHDE and its phases
// across a core-count sweep. GOMAXPROCS and Options.Workers are both
// pinned to the sweep point, each row is the fastest of cfg.Reps runs,
// and one workspace serves a graph's whole sweep (its arenas are sized by
// the problem shape only, the reuse a long-lived job worker sees). Every
// run's coordinates are hashed: a run that differs from the graph's first
// 1-worker run by a single bit is a determinism regression and fails the
// experiment.
func Fig4(w io.Writer, cfg Config) error { return fig4(w, cfg, core.ParHDE) }

// fig4 is Fig4 over a given layout function (the tests substitute one
// that breaks determinism).
func fig4(w io.Writer, cfg Config, layout func(*graph.CSR, core.Options) (*core.Layout, *core.Report, error)) error {
	cfg = cfg.withDefaults()
	sweep := threadSweep(cfg.MaxThreads)
	fprintf(w, "Figure 4: relative speedup vs 1 thread (cores swept: %v), fastest of %d reps\n", sweep, cfg.Reps)
	fprintf(w, "%-10s %6s %10s %9s %8s %12s %8s  %s\n", "graph", "cores", "time (s)", "overall", "BFS", "TripleProd", "DOrtho", "checksum")
	for _, ng := range LargeCollection(cfg.Factor) {
		opt := core.Options{Subspace: 10, Seed: 42, Workspace: workspace.New()}
		var base core.Breakdown
		var want string
		for _, p := range sweep {
			opt.Workers = p
			var best *core.Report
			var err error
			withThreads(p, func() {
				for r := 0; r < cfg.Reps; r++ {
					lay, rep, e := layout(ng.G, opt)
					if e != nil {
						err = e
						return
					}
					sum := coordsChecksum(lay.Coords.Data)
					if want == "" {
						want = sum
					}
					if sum != want {
						err = fmt.Errorf("coordinates differ from the 1-worker run (checksum %s, want %s)", sum, want)
						return
					}
					if best == nil || rep.Breakdown.Total < best.Breakdown.Total {
						best = rep
					}
				}
			})
			if err != nil {
				return fmt.Errorf("fig4: %s at %d workers: %w", ng.Name, p, err)
			}
			bd := best.Breakdown
			if p == 1 {
				base = bd
			}
			fprintf(w, "%-10s %6d %10.4f %8.2fx %7.2fx %11.2fx %7.2fx  %s\n",
				ng.Name, p, seconds(bd.Total),
				ratio(base.Total, bd.Total),
				ratio(base.BFS(), bd.BFS()),
				ratio(base.TripleProd(), bd.TripleProd()),
				ratio(base.DOrtho, bd.DOrtho), want)
		}
	}
	return nil
}

// coordsChecksum hashes the raw float64 bits of the coordinates, so any
// single-ulp divergence between worker budgets is caught.
func coordsChecksum(coords []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range coords {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// Fig5 reproduces Figure 5: the s=50 breakdown (left), the split of the
// BFS phase into traversal and overhead (middle), and the split of
// TripleProd into LS and Sᵀ(LS) (right).
func Fig5(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	opt := core.Options{Subspace: 50, Seed: 42}
	fprintf(w, "Figure 5 (left): breakdown with s=50\n")
	fprintf(w, "%-10s %7s %11s %8s %7s | %10s %10s | %7s %9s\n",
		"graph", "BFS%", "TripleProd%", "DOrtho%", "Other%", "traversal%", "overhead%", "LS%", "S'(LS)%")
	for _, ng := range LargeCollection(cfg.Factor) {
		rep := mustParHDE(ng, opt)
		bd := rep.Breakdown
		b, t, o, r := bd.Percentages()
		travPct := 100 * ratio(bd.BFSTraversal, bd.BFS())
		lsPct := 100 * ratio(bd.LS, bd.TripleProd())
		fprintf(w, "%-10s %6.1f%% %10.1f%% %7.1f%% %6.1f%% | %9.1f%% %9.1f%% | %6.1f%% %8.1f%%\n",
			ng.Name, b, t, o, r, travPct, 100-travPct, lsPct, 100-lsPct)
	}
	return nil
}

// Fig6 reproduces Figure 6: PivotMDS breakdown on all threads and one
// thread, and PHDE breakdown, s = 10. Categories: BFS, centering, matmul,
// other.
func Fig6(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	opt := core.Options{Subspace: 10, Seed: 42}
	fprintf(w, "Figure 6: PivotMDS and PHDE breakdown (%% of total), s=10\n")
	fprintf(w, "%-16s %-10s %7s %9s %8s %7s\n", "config", "graph", "BFS%", "center%", "matmul%", "other%")
	for _, ng := range LargeCollection(cfg.Factor) {
		var mdsPar, mdsSer, phde *core.Report
		withThreads(cfg.MaxThreads, func() {
			mdsPar = mustRun(core.PivotMDS, ng, opt)
			phde = mustRun(core.PHDE, ng, opt)
		})
		withThreads(1, func() { mdsSer = mustRun(core.PivotMDS, ng, opt) })
		rows := []struct {
			cfg string
			rep *core.Report
		}{
			{"pivotmds-par", mdsPar}, {"pivotmds-1thr", mdsSer}, {"phde-par", phde},
		}
		for _, row := range rows {
			bd := row.rep.Breakdown
			tot := float64(bd.Total)
			if tot == 0 {
				tot = 1
			}
			bfsP := 100 * float64(bd.BFS()) / tot
			cenP := 100 * float64(bd.Centering) / tot
			mmP := 100 * float64(bd.Gemm+bd.Project) / tot
			fprintf(w, "%-16s %-10s %6.1f%% %8.1f%% %7.1f%% %6.1f%%\n",
				row.cfg, ng.Name, bfsP, cenP, mmP, 100-bfsP-cenP-mmP)
		}
	}
	return nil
}

// Fig7 reproduces Figure 7: drawings of the plate mesh by ParHDE with
// random pivots, PHDE, and PivotMDS — all should capture the four-hole
// global structure (verified here by quality metrics, with PNGs on
// request).
func Fig7(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	g := plate(cfg)
	fprintf(w, "Figure 7: alternative drawings of the plate mesh\n")
	fprintf(w, "%-22s %12s %10s %9s   %s\n", "method", "Hall ratio", "edge CV", "dist-corr", "drawing")
	runs := []struct {
		name string
		f    func() (*core.Layout, error)
	}{
		{"parhde-random-pivots", func() (*core.Layout, error) {
			l, _, err := core.ParHDE(g, core.Options{Subspace: 50, Seed: 3, Pivots: pivot.Random})
			return l, err
		}},
		{"phde", func() (*core.Layout, error) {
			l, _, err := core.PHDE(g, core.Options{Subspace: 50, Seed: 3})
			return l, err
		}},
		{"pivotmds", func() (*core.Layout, error) {
			l, _, err := core.PivotMDS(g, core.Options{Subspace: 50, Seed: 3})
			return l, err
		}},
	}
	for _, r := range runs {
		lay, err := r.f()
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		q := core.Evaluate(g, lay)
		dc := core.DistanceCorrelation(g, lay, 16, 9)
		path, err := savePNG(cfg, "fig7_"+r.name, g, lay)
		if err != nil {
			return err
		}
		fprintf(w, "%-22s %12.5f %10.3f %9.3f   %s\n", r.name, q.HallRatio, q.EdgeLengthCV, dc, path)
	}
	return nil
}

// Fig8 reproduces Figure 8: the zoomed drawing of the 10-hop neighborhood
// of a vertex in the plate mesh.
func Fig8(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	g := plate(cfg)
	center := int32(g.NumV / 2)
	z, err := core.Zoom(g, center, 10, core.Options{Subspace: 20, Seed: 4})
	if err != nil {
		return err
	}
	path, err := savePNG(cfg, "fig8_zoom", z.Subgraph, z.Layout)
	if err != nil {
		return err
	}
	q := core.Evaluate(z.Subgraph, z.Layout)
	fprintf(w, "Figure 8: 10-hop zoom around vertex %d\n", center)
	fprintf(w, "neighborhood: n=%d m=%d  Hall ratio %.5f  drawing %s\n",
		z.Subgraph.NumV, z.Subgraph.NumEdges(), q.HallRatio, path)
	return nil
}
