// Package render turns a layout into the picture a client sees: a
// node-link drawing with straight 1px edges ("we use an open-source PNG
// format file writer to create the drawings. Edges are drawn as straight
// lines of fixed thickness"), as PNG (Canvas, Draw), SVG (DrawSVG) or
// Graphviz input (WriteDOT). In the serving tier a cache miss on
// layout.png / zoom.png is this package end to end, so it sits on the
// interactive path of §4.5.2 and is built like the layout kernels: a
// Canvas owns every buffer a draw needs — an 8-bit paletted pixel
// buffer, per-vertex pixel coordinates, the PNG encoder's state and its
// output — and a warm Canvas draws without allocating. Both renderers
// share one layout→pixel mapping (pixelMap), so a PNG and an SVG of the
// same layout agree on where every vertex is.
package render

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
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
	// Palette holds the class colours. The PNG is 8-bit indexed and Back
	// and Edge take two of its 256 entries, so only the first 254 are
	// used: class k draws in Palette[k mod min(len(Palette), 254)], in
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

// pixelMap is the layout→pixel mapping of both renderers: shift to the
// layout's bounding box, divide by the box's larger side (so the aspect
// ratio survives), scale to the drawable square inside the margin.
// Non-finite coordinates are left out of the box, so one NaN or ±Inf
// vertex loses its own edges and nothing else.
type pixelMap struct {
	x, y                []float64
	minX, minY, span    float64
	margin, scale, size float64
}

func newPixelMap(l *core.Layout, opt Options) pixelMap {
	m := pixelMap{
		x: l.X(), y: l.Y(),
		margin: float64(opt.Margin),
		scale:  float64(opt.Size - 2*opt.Margin),
		size:   float64(opt.Size),
	}
	var maxX, maxY float64
	m.minX, maxX = finiteBounds(m.x)
	m.minY, maxY = finiteBounds(m.y)
	m.span = math.Max(maxX-m.minX, maxY-m.minY)
	if !(m.span > 0) {
		m.span = 1
	}
	return m
}

func finiteBounds(col []float64) (mn, mx float64) {
	mn, mx = math.Inf(1), math.Inf(-1)
	for _, v := range col {
		if math.IsInf(v, 0) {
			continue
		}
		if v < mn { // false for NaN
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
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
// The image is 8-bit indexed colour: index 0 is Back (so clearing is
// zeroing), 1 is Edge, 2… are Options.Palette.
type Canvas struct {
	// img has one guard column and row beyond Rect: with a zero margin
	// (Size < 8) a coordinate can round to Size itself, and the guard
	// takes that pixel so the walk needs no bounds test.
	img    image.Paletted
	colors []color.RGBA // what img.Palette was built from
	px, py []int32      // per-vertex pixel position; px < 0 = not drawable
	enc    png.Encoder
	pool   encoderPool
	out    bytes.Buffer
}

// encoderPool hands the one png.EncoderBuffer of a Canvas back to its
// encoder, so zlib state and row buffers survive between draws.
type encoderPool struct{ b *png.EncoderBuffer }

func (p *encoderPool) Get() *png.EncoderBuffer  { return p.b }
func (p *encoderPool) Put(b *png.EncoderBuffer) { p.b = b }

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

// draw rasterizes into c.img and encodes it into c.out.
func (c *Canvas) draw(g *graph.CSR, l *core.Layout, opt Options) error {
	opt = opt.withDefaults()
	l = Project3D(l)
	c.reset(opt)
	c.place(g.NumV, newPixelMap(l, opt))
	for v := int32(0); int(v) < g.NumV; v++ {
		if c.px[v] < 0 {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if u <= v || c.px[u] < 0 {
				continue
			}
			ci := uint8(1)
			if k := opt.paletteIndex(v, u); k >= 0 {
				ci = uint8(2 + k)
			}
			c.line(int(c.px[v]), int(c.py[v]), int(c.px[u]), int(c.py[u]), ci)
		}
	}
	c.out.Reset()
	return c.enc.Encode(&c.out, &c.img)
}

// reset sizes and clears the pixel buffer and installs opt's colours.
func (c *Canvas) reset(opt Options) {
	side := opt.Size + 1
	if n := side * side; cap(c.img.Pix) < n {
		c.img.Pix = make([]uint8, n)
	} else {
		c.img.Pix = c.img.Pix[:n]
		clear(c.img.Pix)
	}
	c.img.Stride = side
	c.img.Rect = image.Rect(0, 0, opt.Size, opt.Size)
	if c.enc.BufferPool == nil {
		c.enc = png.Encoder{CompressionLevel: png.BestSpeed, BufferPool: &c.pool}
	}

	usable := min(len(opt.Palette), maxPalette)
	if len(c.colors) == 2+usable && c.colors[0] == opt.Back && c.colors[1] == opt.Edge &&
		slices.Equal(c.colors[2:], opt.Palette[:usable]) {
		return
	}
	c.colors = append(append(c.colors[:0], opt.Back, opt.Edge), opt.Palette[:usable]...)
	// Entries are stored as the NRGBA the encoder would convert them to
	// (it then writes them without allocating), and padded with Back
	// past 16: at 16 colours or fewer the encoder switches to sub-byte
	// depths and packs every pixel through an interface call, ~3× the
	// cost of the 8-bit row copy.
	c.img.Palette = c.img.Palette[:0]
	for _, rgba := range c.colors {
		c.img.Palette = append(c.img.Palette, color.NRGBAModel.Convert(rgba))
	}
	for len(c.img.Palette) <= 16 {
		c.img.Palette = append(c.img.Palette, c.img.Palette[0])
	}
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
// walk, stepping a Pix index. Both ends are inside the guarded buffer
// (pixelMap.at), so every pixel between them is.
func (c *Canvas) line(x0, y0, x1, y1 int, ci uint8) {
	pix, stride := c.img.Pix, c.img.Stride
	dx, dy := x1-x0, y1-y0
	sx, sy := 1, stride
	if dx < 0 {
		dx, sx = -dx, -1
	}
	if dy < 0 {
		dy, sy = -dy, -stride
	}
	dy = -dy
	i, end := y0*stride+x0, y1*stride+x1
	err := dx + dy
	for {
		pix[i] = ci
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
