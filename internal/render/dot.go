package render

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/graph"
)

// WriteDOT exports the graph with pinned layout positions in Graphviz DOT
// format (`neato -n` renders it verbatim), so ParHDE coordinates flow into
// the wider graph-drawing toolchain. Coordinates are scaled to a
// `scale`-inch canvas by the drawings' pixelMap, so a vertex with a
// non-finite coordinate is written without a position and moves no other;
// weighted graphs carry edge weights as attributes.
func WriteDOT(w io.Writer, g *graph.CSR, l *core.Layout, scale float64) error {
	if scale <= 0 {
		scale = 10
	}
	m := newPixelMap(Project3D(l), 0, scale)
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintln(bw, "graph parhde {"); err != nil {
		return err
	}
	fmt.Fprintln(bw, `  node [shape=point, width=0.02];`)
	for v := int32(0); int(v) < g.NumV; v++ {
		if x, y, ok := m.at(v); ok {
			fmt.Fprintf(bw, "  %d [pos=\"%.4f,%.4f!\"];\n", v, x, y)
		} else {
			fmt.Fprintf(bw, "  %d;\n", v)
		}
	}
	for v := int32(0); int(v) < g.NumV; v++ {
		for k := g.Offsets[v]; k < g.Offsets[v+1]; k++ {
			u := g.Adj[k]
			if u <= v {
				continue
			}
			if g.Weighted() {
				fmt.Fprintf(bw, "  %d -- %d [weight=%g];\n", v, u, g.Weights[k])
			} else {
				fmt.Fprintf(bw, "  %d -- %d;\n", v, u)
			}
		}
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return err
	}
	return bw.Flush()
}
