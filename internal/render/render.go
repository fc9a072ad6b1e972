// Package render turns a layout into the picture a client sees: a
// node-link drawing with straight 1px edges ("we use an open-source PNG
// format file writer to create the drawings. Edges are drawn as straight
// lines of fixed thickness"), as PNG (Canvas, Draw), SVG (DrawSVG) or
// Graphviz input (WriteDOT). In the serving tier a cache miss on
// layout.png / zoom.png is this package end to end, so it sits on the
// interactive path of §4.5.2 and is built like the layout kernels: a
// Canvas owns every buffer a draw needs — per-vertex pixel coordinates,
// the PNG's scanlines (its only image), the zlib state and the file —
// and a warm Canvas draws without allocating. It draws straight into the
// file's rows, at one bit per pixel for a two-colour drawing (every
// server tile); only the deflate is compress/zlib's. Both renderers
// share one layout→pixel mapping (pixelMap), so a PNG and an SVG of the
// same layout agree on where every vertex is.
package render

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"hash/crc32"
	"image/color"
	"io"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/linalg"
)

// Options controls the rendered image.
type Options struct {
	Size   int        // image width and height in pixels (default 800)
	Margin int        // border in pixels (default 16)
	Edge   color.RGBA // edge color (default dark slate)
	Back   color.RGBA // background (default white)
	// EdgeClass, when non-nil, maps an edge to a class index into Palette;
	// used to color intra- vs inter-partition edges (§4.5.4). A class
	// beyond the palette wraps around it; a negative class (an unassigned
	// partition label) draws in Edge.
	EdgeClass func(u, v int32) int
	// Palette holds the class colours. With a palette the PNG is 8-bit
	// indexed and Back and Edge take two of its 256 entries, so only the
	// first 254 are used: class k draws in Palette[k mod min(len(Palette), 254)], in
	// DrawSVG too so both formats agree.
	Palette []color.RGBA
}

func (o Options) withDefaults() Options {
	if o.Size <= 0 {
		o.Size = 800
	}
	if o.Margin <= 0 {
		o.Margin = 16
	}
	if o.Margin*2 >= o.Size {
		o.Margin = o.Size / 8
	}
	if o.Edge == (color.RGBA{}) {
		o.Edge = color.RGBA{R: 40, G: 40, B: 60, A: 255}
	}
	if o.Back == (color.RGBA{}) {
		o.Back = color.RGBA{R: 255, G: 255, B: 255, A: 255}
	}
	return o
}

// Project3D returns a 2-D isometric projection of a 3-D layout
// (x' = x − z/√2, y' = y − z/√2), so p=3 embeddings (the paper allows
// p ∈ {2, 3}) can go through the same 2-D renderers. 2-D layouts are
// returned unchanged.
func Project3D(l *core.Layout) *core.Layout {
	if l.Dims() < 3 {
		return l
	}
	out := &core.Layout{Coords: linalg.NewDense(l.NumVertices(), 2)}
	x, y, z := l.Coords.Col(0), l.Coords.Col(1), l.Coords.Col(2)
	ox, oy := out.Coords.Col(0), out.Coords.Col(1)
	const f = 0.70710678118654752 // 1/√2
	for i := range x {
		ox[i] = x[i] - f*z[i]
		oy[i] = y[i] - f*z[i]
	}
	return out
}

// Draw renders the layout of g as straight-line edges and writes a PNG.
// 3-D layouts are isometrically projected first. It is the one-shot form
// of Canvas.Draw; callers that draw repeatedly keep a Canvas.
func Draw(w io.Writer, g *graph.CSR, l *core.Layout, opt Options) error {
	return new(Canvas).Draw(w, g, l, opt)
}

// maxPalette is how many Options.Palette entries fit an 8-bit indexed
// image beside Back and Edge.
const maxPalette = 254

// paletteIndex returns the Palette entry edge (v, u) is drawn in, or −1
// for Options.Edge.
func (o Options) paletteIndex(v, u int32) int {
	if o.EdgeClass == nil || len(o.Palette) == 0 {
		return -1
	}
	k := o.EdgeClass(v, u)
	if k < 0 {
		return -1
	}
	return k % min(len(o.Palette), maxPalette)
}

// pixelMap is the layout→pixel mapping of every writer: shift to the
// layout's bounding box, divide by the box's larger side (so the aspect
// ratio survives), scale to the drawable square inside the margin.
// Non-finite coordinates are left out of the box, so one NaN or ±Inf
// vertex loses its own edges and nothing else.
type pixelMap struct {
	x, y                []float64
	minX, minY, span    float64
	margin, scale, size float64
}

func newPixelMap(l *core.Layout, margin, side float64) pixelMap {
	m := pixelMap{x: l.X(), y: l.Y(), margin: margin, scale: side - 2*margin, size: side}
	var maxX, maxY float64
	m.minX, maxX = core.FiniteBounds(m.x)
	m.minY, maxY = core.FiniteBounds(m.y)
	m.span = math.Max(maxX-m.minX, maxY-m.minY)
	if !(m.span > 0) {
		m.span = 1
	}
	return m
}

// at returns vertex v's position in pixels and whether it is drawable.
// A finite coordinate normalises into [0, 1] and so lands in
// [Margin, Size−Margin]; ok is false for everything else — NaN, ±Inf,
// and a bounding box too wide for a float64 — which is what bounds a
// line walk by the image size whatever the layout holds. The float64
// conversions keep ports with fused multiply-add on the same pixels.
func (m pixelMap) at(v int32) (x, y float64, ok bool) {
	x = m.margin + float64((m.x[v]-m.minX)/m.span*m.scale)
	y = m.margin + float64((m.y[v]-m.minY)/m.span*m.scale)
	return x, y, x >= 0 && x <= m.size && y >= 0 && y <= m.size
}

// Canvas draws layouts to PNG reusing its buffers from one draw to the
// next: after a first draw at a given size it allocates nothing that
// grows with the image or the graph. The zero value is ready to use; a
// Canvas must not be used from two goroutines at once. The bytes it
// writes depend only on the arguments of that draw, never on what the
// canvas drew before.
//
// The image is indexed colour: index 0 is Back (so clearing is
// zeroing), 1 is Edge, 2… are Options.Palette. The canvas holds it only
// as the PNG's filtered scanlines and draws straight into them: at one
// bit per pixel when Back and Edge are the whole palette, as on every
// server tile, and at eight otherwise.
type Canvas struct {
	size, rowLen int          // image side; bytes per scanline, filter byte included
	depth        byte         // PNG bit depth: 1 or 8
	colors       []color.RGBA // what plte and trns were built from
	plte, trns   []byte       // PLTE and tRNS chunk data of colors
	px, py       []int32      // per-vertex pixel position; px < 0 = not drawable
	rows         []byte       // the scanlines, filter byte 0 then the pixels, deflated in one Write
	zw           *zlib.Writer
	out          bytes.Buffer
}

// Draw renders like the package-level Draw and writes the PNG to w in a
// single Write.
func (c *Canvas) Draw(w io.Writer, g *graph.CSR, l *core.Layout, opt Options) error {
	if err := c.draw(g, l, opt); err != nil {
		return err
	}
	_, err := w.Write(c.out.Bytes())
	return err
}

// PNG renders like Draw and returns the file as a new slice of exactly
// its length, for callers that keep it (a cache charges len, not cap).
func (c *Canvas) PNG(g *graph.CSR, l *core.Layout, opt Options) ([]byte, error) {
	if err := c.draw(g, l, opt); err != nil {
		return nil, err
	}
	b := make([]byte, c.out.Len())
	copy(b, c.out.Bytes())
	return b, nil
}

// draw rasterizes into c.rows and encodes them into c.out.
func (c *Canvas) draw(g *graph.CSR, l *core.Layout, opt Options) error {
	opt = opt.withDefaults()
	l = Project3D(l)
	c.reset(opt)
	c.place(g.NumV, newPixelMap(l, float64(opt.Margin), float64(opt.Size)))
	classed := opt.EdgeClass != nil && len(opt.Palette) > 0
	for v := int32(0); int(v) < g.NumV; v++ {
		if c.px[v] < 0 {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if u <= v || c.px[u] < 0 {
				continue
			}
			ci := uint8(1)
			if classed {
				if k := opt.paletteIndex(v, u); k >= 0 {
					ci = uint8(2 + k)
				}
			}
			c.line(int(c.px[v]), int(c.py[v]), int(c.px[u]), int(c.py[u]), ci)
		}
	}
	return c.writePNG()
}

// reset sizes and clears the scanlines for opt's bit depth (filter byte
// 0, none: filters rarely help indexed images) and installs opt's colours.
func (c *Canvas) reset(opt Options) {
	usable := min(len(opt.Palette), maxPalette)
	c.size, c.depth, c.rowLen = opt.Size, 8, 1+opt.Size
	if usable == 0 {
		c.depth, c.rowLen = 1, 1+(opt.Size+7)/8
	}
	if n := c.size * c.rowLen; cap(c.rows) < n {
		c.rows = make([]byte, n)
	} else {
		c.rows = c.rows[:n]
		clear(c.rows)
	}

	if len(c.colors) == 2+usable && c.colors[0] == opt.Back && c.colors[1] == opt.Edge &&
		slices.Equal(c.colors[2:], opt.Palette[:usable]) {
		return
	}
	c.colors = append(append(c.colors[:0], opt.Back, opt.Edge), opt.Palette[:usable]...)
	// PNG palettes are not premultiplied. tRNS runs to the last
	// translucent entry; the decoder reads the rest as opaque.
	c.plte, c.trns = c.plte[:0], c.trns[:0]
	trnsLen := 0
	for i, rgba := range c.colors {
		nc := color.NRGBAModel.Convert(rgba).(color.NRGBA)
		c.plte = append(c.plte, nc.R, nc.G, nc.B)
		c.trns = append(c.trns, nc.A)
		if nc.A != 0xff {
			trnsLen = i + 1
		}
	}
	c.trns = c.trns[:trnsLen]
}

// writePNG encodes the image in c.rows into c.out: signature, IHDR,
// PLTE, tRNS when a colour is translucent, one IDAT holding the zlib
// stream of the scanlines as they stand at BestSpeed, IEND.
func (c *Canvas) writePNG() error {
	c.out.Reset()
	c.out.WriteString("\x89PNG\r\n\x1a\n")
	start := c.beginChunk("IHDR")
	ihdr := binary.BigEndian.AppendUint32(c.out.AvailableBuffer(), uint32(c.size))
	ihdr = binary.BigEndian.AppendUint32(ihdr, uint32(c.size))
	// Colour type 3 (indexed), compression 0 (deflate), filter method
	// 0, not interlaced.
	c.out.Write(append(ihdr, c.depth, 3, 0, 0, 0))
	c.endChunk(start)
	start = c.beginChunk("PLTE")
	c.out.Write(c.plte)
	c.endChunk(start)
	if len(c.trns) > 0 {
		start = c.beginChunk("tRNS")
		c.out.Write(c.trns)
		c.endChunk(start)
	}

	start = c.beginChunk("IDAT")
	if c.zw == nil {
		c.zw, _ = zlib.NewWriterLevel(&c.out, zlib.BestSpeed) // the level is valid
	} else {
		c.zw.Reset(&c.out)
	}
	if _, err := c.zw.Write(c.rows); err != nil {
		return err
	}
	if err := c.zw.Close(); err != nil {
		return err
	}
	c.endChunk(start)
	c.endChunk(c.beginChunk("IEND"))
	return nil
}

// beginChunk writes a chunk's length placeholder and type and returns
// where the chunk starts; its data follows.
func (c *Canvas) beginChunk(typ string) int {
	start := c.out.Len()
	c.out.WriteString("\x00\x00\x00\x00")
	c.out.WriteString(typ)
	return start
}

// endChunk fills in the length of the chunk at start and appends the
// CRC-32 of its type and data.
func (c *Canvas) endChunk(start int) {
	b := c.out.Bytes()[start:]
	binary.BigEndian.PutUint32(b, uint32(len(b)-8))
	c.out.Write(binary.BigEndian.AppendUint32(c.out.AvailableBuffer(), crc32.ChecksumIEEE(b[4:])))
}

// place computes every vertex's pixel once, rounding half up as the
// line walk's endpoints always have.
func (c *Canvas) place(n int, m pixelMap) {
	if cap(c.px) < n {
		c.px, c.py = make([]int32, n), make([]int32, n)
	}
	c.px, c.py = c.px[:n], c.py[:n]
	for v := range c.px {
		x, y, ok := m.at(int32(v))
		if !ok {
			c.px[v] = -1
			continue
		}
		c.px[v], c.py[v] = int32(x+0.5), int32(y+0.5)
	}
}

// line draws an anti-alias-free 1px line with the integer Bresenham
// walk, stepping an index i that counts pixels from the start of c.rows:
// at depth 1 a pixel is bit 7−i&7 of byte i/8, at depth 8 byte i. Both
// ends lie in [0, Size] (pixelMap.at); only with a zero margin (Size < 8)
// can one lie on the guard line x or y = Size, outside the image, and
// only such a line takes clippedLine.
func (c *Canvas) line(x0, y0, x1, y1 int, ci uint8) {
	if max(x0, y0, x1, y1) >= c.size {
		c.clippedLine(x0, y0, x1, y1, ci)
		return
	}
	rows, bits := c.rows, c.depth == 1
	// Row y's first pixel is index y·stride + first, past its filter byte.
	stride, first := c.rowLen, 1
	if bits {
		stride, first = 8*stride, 8
	}
	dx, dy := x1-x0, y1-y0
	sx, sy := 1, stride
	if dx < 0 {
		dx, sx = -dx, -1
	}
	if dy < 0 {
		dy, sy = -dy, -stride
	}
	dy = -dy
	i, end := y0*stride+first+x0, y1*stride+first+x1
	err := dx + dy
	for {
		if bits {
			rows[i>>3] |= 0x80 >> (i & 7)
		} else {
			rows[i] = ci
		}
		if i == end {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			i += sx
		}
		if e2 <= dx {
			err += dx
			i += sy
		}
	}
}

// clippedLine is line's walk in (x, y), drawing the pixels off the
// guard line one by one.
func (c *Canvas) clippedLine(x0, y0, x1, y1 int, ci uint8) {
	dx, dy := x1-x0, y1-y0
	sx, sy := 1, 1
	if dx < 0 {
		dx, sx = -dx, -1
	}
	if dy < 0 {
		dy, sy = -dy, -1
	}
	dy = -dy
	err := dx + dy
	for x, y := x0, y0; ; {
		if x < c.size && y < c.size {
			c.line(x, y, x, y, ci)
		}
		if x == x1 && y == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x += sx
		}
		if e2 <= dx {
			err += dx
			y += sy
		}
	}
}
