// Command parhde computes a 2-D layout of a graph with ParHDE (or one of
// its sibling algorithms) and writes coordinates and, optionally, a PNG
// drawing.
//
// Usage:
//
//	parhde -in graph.txt [-format edges|mtx|bin] [-algo parhde|phde|pivotmds|prior]
//	       [-s 50] [-pivots kcenters|random] [-ortho mgs|cgs] [-plain]
//	       [-png out.png] [-coords out.xy] [-refine N] [-zoom vertex -hops K]
//
// The input is preprocessed exactly as in the paper: symmetrized, self
// loops and parallel edges removed, largest connected component extracted.
// -refine N runs N iterations of eigen.LOBPCG seeded by the layout
// (§4.5.3) and draws the result, which moves the axes toward the true
// degree-normalized eigenvectors.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/graph"
	"repro/internal/ortho"
	"repro/internal/pivot"
	"repro/internal/render"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "parhde:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in       = flag.String("in", "", "input graph file (required)")
		format   = flag.String("format", "edges", "input format: edges, mtx, bin")
		algo     = flag.String("algo", "parhde", "algorithm: parhde, phde, pivotmds, prior")
		s        = flag.Int("s", 50, "subspace dimension (number of pivots)")
		pivots   = flag.String("pivots", "kcenters", "pivot strategy: kcenters, random")
		orthoM   = flag.String("ortho", "mgs", "orthogonalization: mgs, cgs")
		plain    = flag.Bool("plain", false, "plain orthogonalization instead of D-orthogonalization")
		weighted = flag.Bool("weighted", false, "keep edge weights and use Δ-stepping SSSP")
		delta    = flag.Float64("delta", 0, "Δ-stepping bucket width (0 = heuristic)")
		seed     = flag.Uint64("seed", 1, "random seed")
		pngOut   = flag.String("png", "", "write a PNG drawing to this path")
		svgOut   = flag.String("svg", "", "write an SVG drawing to this path")
		dotOut   = flag.String("dot", "", "write a Graphviz DOT file (pinned positions) to this path")
		coords   = flag.String("coords", "", "write vertex coordinates to this path")
		refine   = flag.Int("refine", 0, "LOBPCG iterations seeded by the layout, whose result replaces it")
		zoomV    = flag.Int("zoom", -1, "zoom: center vertex (-1 = no zoom)")
		hops     = flag.Int("hops", 10, "zoom: neighborhood radius in hops")
		quiet    = flag.Bool("q", false, "suppress the run report")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		return fmt.Errorf("missing -in")
	}

	opt := core.Options{
		Subspace:   *s,
		Seed:       *seed,
		Delta:      *delta,
		PlainOrtho: *plain,
	}
	switch *pivots {
	case "kcenters":
	case "random":
		opt.Pivots = pivot.Random
	default:
		return fmt.Errorf("unknown pivot strategy %q (want kcenters or random)", *pivots)
	}
	switch *orthoM {
	case "mgs":
	case "cgs":
		opt.Ortho = ortho.CGS
	default:
		return fmt.Errorf("unknown orthogonalization %q (want mgs or cgs)", *orthoM)
	}

	g, err := loadGraph(*in, *format, *weighted)
	if err != nil {
		return err
	}

	if *zoomV >= 0 {
		z, err := core.Zoom(g, int32(*zoomV), *hops, opt)
		if err != nil {
			return err
		}
		if !*quiet {
			fmt.Printf("zoom: %d-hop neighborhood of %d: n=%d m=%d\n",
				*hops, *zoomV, z.Subgraph.NumV, z.Subgraph.NumEdges())
		}
		return emit(z.Subgraph, z.Layout, *pngOut, *svgOut, *dotOut, *coords)
	}

	var lay *core.Layout
	var rep *core.Report
	switch *algo {
	case "parhde":
		lay, rep, err = core.ParHDE(g, opt)
	case "phde":
		lay, rep, err = core.PHDE(g, opt)
	case "pivotmds":
		lay, rep, err = core.PivotMDS(g, opt)
	case "prior":
		lay, rep, err = core.Prior(g, opt)
	default:
		return fmt.Errorf("unknown algorithm %q (want parhde, phde, pivotmds or prior)", *algo)
	}
	if err != nil {
		return err
	}
	if *refine > 0 {
		res := eigen.LOBPCG(g, lay.Dims(), eigen.LOBPCGOptions{MaxIters: *refine, Tol: 1e-9, Init: lay.Coords})
		lay.Coords = res.Vectors
		if !*quiet {
			fmt.Printf("refine: %d LOBPCG iterations, residual %.3g\n", res.Iterations, res.Residual)
		}
	}
	if !*quiet {
		fmt.Printf("graph: n=%d m=%d (largest component, relabeled)\n", g.NumV, g.NumEdges())
		fmt.Printf("%s: %s\n", *algo, rep.Breakdown.String())
		q := core.Evaluate(g, lay)
		fmt.Printf("quality: Hall ratio %.5f, mean edge length %.4f, edge CV %.3f\n",
			q.HallRatio, q.MeanEdgeLength, q.EdgeLengthCV)
	}
	return emit(g, lay, *pngOut, *svgOut, *dotOut, *coords)
}

func loadGraph(path, format string, weighted bool) (*graph.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Read(f, format, graph.BuildOptions{Weighted: weighted})
}

func emit(g *graph.CSR, lay *core.Layout, pngOut, svgOut, dotOut, coordsOut string) error {
	save := func(path string, write func(f *os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := save(pngOut, func(f *os.File) error { return render.Draw(f, g, lay, render.Options{}) }); err != nil {
		return err
	}
	if err := save(svgOut, func(f *os.File) error { return render.DrawSVG(f, g, lay, render.Options{}) }); err != nil {
		return err
	}
	if err := save(dotOut, func(f *os.File) error { return render.WriteDOT(f, g, lay, 10) }); err != nil {
		return err
	}
	if coordsOut != "" {
		f, err := os.Create(coordsOut)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		for i := 0; i < lay.NumVertices(); i++ {
			fmt.Fprintf(w, "%d %.10g %.10g\n", i, lay.X()[i], lay.Y()[i])
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
