// Command graphinfo loads a graph, runs the paper's preprocessing
// pipeline, and reports Table 2-style statistics plus the Figure 2
// adjacency-gap histogram.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/fibbin"
	"repro/internal/graph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "graphinfo:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in     = flag.String("in", "", "input graph file (required)")
		format = flag.String("format", "edges", "input format: edges, mtx, bin")
		gaps   = flag.Bool("gaps", false, "print the Fibonacci-binned gap histogram")
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		return fmt.Errorf("missing -in")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()

	g, err := graph.Read(f, *format, graph.BuildOptions{})
	if err != nil {
		return err
	}

	gs := graph.GapSummary(g)
	fmt.Printf("vertices (n):      %d\n", g.NumV)
	fmt.Printf("edges (m):         %d\n", g.NumEdges())
	fmt.Printf("max degree:        %d\n", g.MaxDegree())
	fmt.Printf("avg degree:        %.2f\n", float64(2*g.NumEdges())/float64(g.NumV))
	fmt.Printf("gap count (2m-n'): %d\n", gs.Count)
	fmt.Printf("mean gap:          %.1f\n", gs.Mean)
	if *gaps {
		h := fibbin.New(int64(g.NumV))
		graph.Gaps(g, h.Add)
		fmt.Println("\ngap histogram (Fibonacci bins, 'upper-bound count'):")
		if err := h.Fprint(os.Stdout, "gaps"); err != nil {
			return err
		}
	}
	return nil
}
