// Command hdeconvert converts graphs between the repository's formats and
// applies the preprocessing transformations the evaluation uses: largest-
// component extraction, random vertex permutation (the §4.4 ordering
// experiment), weight attachment, and subgraph extraction.
//
// Usage:
//
//	hdeconvert -in web.txt -out web.mtx -to mtx
//	hdeconvert -in web.bin -from bin -out shuffled.bin -to bin -permute -seed 7
//	hdeconvert -in big.txt -out ball.txt -center 123 -hops 10
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hdeconvert:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in       = flag.String("in", "", "input path (required)")
		out      = flag.String("out", "", "output path (required)")
		from     = flag.String("from", "edges", "input format: edges, mtx, bin")
		to       = flag.String("to", "edges", "output format: edges, mtx, bin")
		weighted = flag.Bool("weighted", false, "keep input edge weights")
		addW     = flag.Int("add-weights", 0, "attach random integer weights in [1,N] (0 = keep as-is)")
		permute  = flag.Bool("permute", false, "randomly permute vertex ids (destroys ordering locality)")
		center   = flag.Int("center", -1, "extract the k-hop neighborhood of this vertex")
		hops     = flag.Int("hops", 10, "neighborhood radius for -center")
		seed     = flag.Uint64("seed", 1, "random seed for -permute / -add-weights")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		flag.Usage()
		return fmt.Errorf("missing -in or -out")
	}

	g, err := load(*in, *from, *weighted || *addW > 0)
	if err != nil {
		return err
	}
	if *addW > 0 {
		g = gen.WithRandomWeights(g.Unweighted(), *addW, *seed^0xdead)
	}
	if *center >= 0 {
		vs, err := graph.Neighborhood(g, int32(*center), *hops)
		if err != nil {
			return err
		}
		g, _, err = graph.InducedSubgraph(g, vs)
		if err != nil {
			return err
		}
	}
	if *permute {
		perm := graph.RandomPermutation(g.NumV, *seed)
		g, err = graph.Permute(g, perm)
		if err != nil {
			return err
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	switch *to {
	case "edges":
		err = graph.WriteEdgeList(w, g)
	case "mtx":
		err = graph.WriteMatrixMarket(w, g)
	case "bin":
		err = graph.WriteBinary(w, g)
	default:
		return fmt.Errorf("unknown output format %q", *to)
	}
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	s := graph.Summarize(g)
	fmt.Printf("n=%d m=%d maxdeg=%d diam≈%d meangap=%.0f weighted=%v -> %s\n",
		s.N, s.M, s.MaxDegree, s.PseudoDiameter, s.MeanGap, g.Weighted(), *out)
	return nil
}

func load(path, format string, weighted bool) (*graph.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Read(f, format, graph.BuildOptions{Weighted: weighted})
}
