package render

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/graph"
)

// DrawSVG writes the layout as a scalable vector drawing — the natural
// format for the §4.5.2 browser-based visualization path, where PNG
// rasterization loses detail on zoom. Edges are straight 1px lines, as in
// the paper's drawings, placed by the same pixelMap as Draw (unrounded)
// and colored by Options.EdgeClass/Palette exactly as in Draw. It returns
// the first write error.
func DrawSVG(w io.Writer, g *graph.CSR, l *core.Layout, opt Options) error {
	opt = opt.withDefaults()
	m := newPixelMap(Project3D(l), float64(opt.Margin), float64(opt.Size))
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw,
		`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n"+
			`<rect width="100%%" height="100%%" fill="#%02x%02x%02x"/>`+"\n",
		opt.Size, opt.Size, opt.Size, opt.Size, opt.Back.R, opt.Back.G, opt.Back.B); err != nil {
		return err
	}
	for v := int32(0); int(v) < g.NumV; v++ {
		x0, y0, ok := m.at(v)
		if !ok {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if u <= v {
				continue
			}
			x1, y1, ok := m.at(u)
			if !ok {
				continue
			}
			c := opt.Edge
			if k := opt.paletteIndex(v, u); k >= 0 {
				c = opt.Palette[k]
			}
			if _, err := fmt.Fprintf(bw,
				`<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#%02x%02x%02x" stroke-width="1"/>`+"\n",
				x0, y0, x1, y1, c.R, c.G, c.B); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintln(bw, `</svg>`); err != nil {
		return err
	}
	return bw.Flush()
}
