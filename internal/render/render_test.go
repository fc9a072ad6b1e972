package render

import (
	"bytes"
	"compress/zlib"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"hash/crc32"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
)

// oracleDraw is the RGBA rasterizer Draw was before Canvas, kept as the
// reference the golden-pixel test compares against: clone and normalise
// the layout, walk a Bresenham line per edge with a bounds test per
// pixel, into a full-colour image. A non-finite coordinate takes no part
// in the bounding box and its vertex's edges are not drawn.
func oracleDraw(g *graph.CSR, l *core.Layout, opt Options) *image.RGBA {
	opt = opt.withDefaults()
	img := image.NewRGBA(image.Rect(0, 0, opt.Size, opt.Size))
	for i := 0; i < len(img.Pix); i += 4 {
		copy(img.Pix[i:], []uint8{opt.Back.R, opt.Back.G, opt.Back.B, opt.Back.A})
	}
	norm := Project3D(l).Clone()
	bad := make([]bool, g.NumV)
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	for _, col := range [][]float64{norm.X(), norm.Y()} {
		fill := 0.0 // a finite value of the column leaves its bounds alone
		for _, x := range col {
			if finite(x) {
				fill = x
				break
			}
		}
		for i, x := range col {
			if !finite(x) {
				col[i], bad[i] = fill, true
			}
		}
	}
	var mins [2]float64
	span := 0.0
	for k, col := range [][]float64{norm.X(), norm.Y()} {
		mn, mx := slices.Min(col), slices.Max(col)
		mins[k], span = mn, math.Max(span, mx-mn)
	}
	if span == 0 {
		span = 1
	}
	for k, col := range [][]float64{norm.X(), norm.Y()} {
		for i := range col {
			col[i] = (col[i] - mins[k]) / span
		}
	}
	scale := float64(opt.Size - 2*opt.Margin)
	px := func(v int32) (int, int) {
		return int(float64(opt.Margin) + norm.X()[v]*scale + 0.5), int(float64(opt.Margin) + norm.Y()[v]*scale + 0.5)
	}
	for v := int32(0); int(v) < g.NumV; v++ {
		for _, u := range g.Neighbors(v) {
			if u <= v || bad[u] || bad[v] {
				continue
			}
			c := opt.Edge
			if opt.EdgeClass != nil && len(opt.Palette) > 0 {
				c = opt.Palette[opt.EdgeClass(v, u)%len(opt.Palette)]
			}
			x, y := px(v)
			x1, y1 := px(u)
			dx, dy, sx, sy := abs(x1-x), -abs(y1-y), 1, 1
			if x > x1 {
				sx = -1
			}
			if y > y1 {
				sy = -1
			}
			for e := dx + dy; ; {
				if image.Pt(x, y).In(img.Rect) {
					img.SetRGBA(x, y, c)
				}
				if x == x1 && y == y1 {
					break
				}
				e2 := 2 * e
				if e2 >= dy {
					e, x = e+dy, x+sx
				}
				if e2 <= dx {
					e, y = e+dx, y+sy
				}
			}
		}
	}
	return img
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func hde(t testing.TB, g *graph.CSR, opt core.Options) *core.Layout {
	t.Helper()
	l, _, err := core.ParHDE(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// constLayout puts every vertex of an n-vertex graph at (x, y).
func constLayout(n int, x, y float64) *core.Layout {
	l := &core.Layout{Coords: linalg.NewDense(n, 2)}
	for i := 0; i < n; i++ {
		l.X()[i], l.Y()[i] = x, y
	}
	return l
}

// TestCanvasGoldenPixels requires the paletted PNG to decode to exactly
// the pixels of the RGBA rasterizer it replaced, on one reused canvas.
func TestCanvasGoldenPixels(t *testing.T) {
	kron := graph.LargestComponent(gen.Kron(9, 8, 3))
	road := gen.Road(40, 40, 7)
	grid := gen.Grid2D(12, 17)
	mesh := gen.Mesh3D(6, 5, 4)
	parts := Options{
		Edge: color.RGBA{R: 200, G: 10, B: 10, A: 255}, Back: color.RGBA{R: 10, G: 10, B: 30, A: 255},
		EdgeClass: func(u, v int32) int { return int(u+v) % 5 },
		Palette:   []color.RGBA{{R: 255, A: 255}, {G: 255, A: 255}, {B: 255, A: 255}, {R: 128, G: 128, B: 128, A: 128}},
	}
	cases := []struct {
		name string
		g    *graph.CSR
		l    *core.Layout
		opt  Options
	}{
		{"road", road, hde(t, road, core.Options{Subspace: 10, Seed: 1}), Options{}},
		{"grid", grid, hde(t, grid, core.Options{Subspace: 6, Seed: 2}), Options{}},
		{"kron", kron, hde(t, kron, core.Options{Subspace: 8, Seed: 3}), Options{}},
		{"mesh3d", mesh, hde(t, mesh, core.Options{Subspace: 8, Dims: 3, Seed: 4}), Options{}},
		{"partitions", grid, hde(t, grid, core.Options{Subspace: 6, Seed: 2}), parts},
		{"one-vertex", gen.Path(1), constLayout(1, 3, 4), Options{}},
		{"zero-span", gen.Path(3), constLayout(3, -2, 5), Options{}},
	}
	var c Canvas
	// Size 7 has a zero margin: coordinates round to Size itself, just
	// outside the image, and the canvas has to leave those pixels out.
	for _, size := range []int{64, 700, 900, 7} {
		for _, tc := range cases {
			tc.opt.Size = size
			var buf bytes.Buffer
			if err := c.Draw(&buf, tc.g, tc.l, tc.opt); err != nil {
				t.Fatal(err)
			}
			got, err := png.Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleDraw(tc.g, tc.l, tc.opt)
			if got.Bounds() != want.Bounds() {
				t.Fatalf("%s@%d: bounds %v, want %v", tc.name, size, got.Bounds(), want.Bounds())
			}
			for y := 0; y < size; y++ {
				for x := 0; x < size; x++ {
					r, g, b, a := got.At(x, y).RGBA()
					wr, wg, wb, wa := want.At(x, y).RGBA()
					if r != wr || g != wg || b != wb || a != wa {
						t.Fatalf("%s@%d: pixel (%d,%d) = %v, oracle has %v", tc.name, size, x, y, got.At(x, y), want.At(x, y))
					}
				}
			}
		}
	}
}

// TestCanvasReuseIsDeterministic: what a canvas drew before — another
// size, another palette, a bigger graph — leaves no trace in the bytes.
func TestCanvasReuseIsDeterministic(t *testing.T) {
	road, grid := gen.Road(30, 30, 1), gen.Grid2D(9, 9)
	lr, lg := hde(t, road, core.Options{Subspace: 8, Seed: 1}), hde(t, grid, core.Options{Subspace: 5, Seed: 1})
	colored := Options{
		EdgeClass: func(u, v int32) int { return int(u) % 3 },
		Palette:   []color.RGBA{{R: 255, A: 255}, {G: 255, A: 255}, {B: 255, A: 255}},
	}
	type step struct {
		g    *graph.CSR
		l    *core.Layout
		opt  Options
		size int
	}
	steps := []step{{road, lr, Options{}, 700}, {grid, lg, colored, 300}, {road, lr, Options{}, 700},
		{grid, lg, Options{Back: color.RGBA{A: 255}}, 300}, {grid, lg, colored, 700}, {road, lr, colored, 64}}
	var reused Canvas
	for i, s := range steps {
		s.opt.Size = s.size
		var a, b bytes.Buffer
		if err := reused.Draw(&a, s.g, s.l, s.opt); err != nil {
			t.Fatal(err)
		}
		if err := Draw(&b, s.g, s.l, s.opt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("step %d: reused canvas wrote %d bytes that differ from a fresh canvas's %d", i, a.Len(), b.Len())
		}
		p, err := reused.PNG(s.g, s.l, s.opt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, b.Bytes()) || cap(p) != len(p) {
			t.Fatalf("step %d: PNG() returned len %d cap %d, Draw wrote %d bytes", i, len(p), cap(p), b.Len())
		}
	}
}

// TestCanvasPNGChecksums pins the files themselves, which the pixel tests
// cannot: the SHA-256 of Canvas.PNG for the server's two tiles, a
// translucent palette, the zero-margin sizes whose vertices round onto
// the guard line x or y = Size, and a layout with non-finite vertices.
// The sums were recorded from the canvas that drew an index byte per
// pixel and packed the rows afterwards.
func TestCanvasPNGChecksums(t *testing.T) {
	road := gen.Road(100, 100, 1)
	opt := core.Options{Subspace: 8, Seed: 1}
	z, err := core.Zoom(road, int32(road.NumV/2), 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	lr := hde(t, road, opt)
	grid := gen.Grid2D(12, 17)
	lg := core.RandomLayout(grid.NumV, 2, 5)
	hostile := core.RandomLayout(grid.NumV, 2, 6)
	hostile.X()[4], hostile.Y()[40] = math.NaN(), math.Inf(1)
	translucent := Options{
		Back:      color.RGBA{R: 10, G: 10, B: 30, A: 255},
		EdgeClass: func(u, v int32) int { return int(u+v) % 7 },
		Palette: []color.RGBA{{R: 255, A: 255}, {G: 100, A: 128}, {B: 200, A: 200},
			{R: 64, G: 64, B: 64, A: 64}, {R: 1, G: 2, B: 3, A: 255}},
	}
	sized := func(o Options, size int) Options { o.Size = size; return o }
	var c Canvas
	for _, tc := range []struct {
		name string
		g    *graph.CSR
		l    *core.Layout
		opt  Options
		sum  string
	}{
		{"road 700", road, lr, Options{Size: 700},
			"05ad5a8a1096cf1705062ed5c8a6110ad72ae2792c973b720ddd9a9eafbbf356"},
		{"zoom 700", z.Subgraph, z.Layout, Options{Size: 700},
			"19c2fa56f56ab96913b679f5efde5c0542d8cfd184caf191608a511321a4c37a"},
		{"translucent palette 300", road, lr, sized(translucent, 300),
			"bcad249e3717c5c296ac426913f60b6d1e82e6948c672421c270ac29359ffb3c"},
		{"size 1", grid, lg, Options{Size: 1},
			"baa5282da3bde468114e0ba436de30e158ad1c031f5feabae370d7f6a3b18181"},
		{"size 7", grid, lg, Options{Size: 7},
			"f8b3ad8632e1cbd2dda334028bf0ed47414c9a4b0e735222d2438cd9cf13117b"},
		{"size 9", grid, lg, Options{Size: 9},
			"5a7cfb7d16ddc0411adf689b9fb31befad12e5043e95e2e6077578f3f59a3fd0"},
		{"translucent palette 7", grid, lg, sized(translucent, 7),
			"c5b765d3976dd1a201298d789e2d69c8347a9f47231b6b7721f0ecaafd9c3a92"},
		{"nan and inf", grid, hostile, Options{Size: 200},
			"7e25abc8c4629892db50227c4228b66d9bec7ccfb9ff6e16580e07ba81b67af1"},
	} {
		file, err := c.PNG(tc.g, tc.l, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(file)); got != tc.sum {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.sum)
		}
	}
}

// pngChunk is one chunk of a PNG file.
type pngChunk struct {
	typ  string
	data []byte
}

// pngChunks splits a PNG file into its chunks, checking the signature,
// every length and every CRC, and that IEND comes last.
func pngChunks(t *testing.T, file []byte) []pngChunk {
	t.Helper()
	if !bytes.HasPrefix(file, []byte("\x89PNG\r\n\x1a\n")) {
		t.Fatalf("no PNG signature: % x", file[:min(8, len(file))])
	}
	var chunks []pngChunk
	for rest := file[8:]; len(rest) > 0; {
		if len(rest) < 12 {
			t.Fatalf("%d stray bytes after chunk %d", len(rest), len(chunks))
		}
		n := int(binary.BigEndian.Uint32(rest))
		if n > len(rest)-12 {
			t.Fatalf("chunk %q claims %d bytes, %d left", rest[4:8], n, len(rest)-12)
		}
		if crc := binary.BigEndian.Uint32(rest[8+n:]); crc != crc32.ChecksumIEEE(rest[4:8+n]) {
			t.Fatalf("chunk %q: bad CRC", rest[4:8])
		}
		chunks = append(chunks, pngChunk{string(rest[4:8]), rest[8 : 8+n]})
		rest = rest[12+n:]
	}
	if len(chunks) == 0 || chunks[len(chunks)-1].typ != "IEND" {
		t.Fatal("file does not end in IEND")
	}
	return chunks
}

// TestCanvasPNGHeader pins what the pixel tests cannot see: a two-colour
// drawing is written at one bit per pixel, a larger palette at eight,
// PLTE holds exactly the drawing's colours, and tRNS appears only for a
// translucent one, running to the last of them.
func TestCanvasPNGHeader(t *testing.T) {
	g := gen.Grid2D(6, 6)
	l := hde(t, g, core.Options{Subspace: 4, Seed: 1})
	half := color.RGBA{R: 60, G: 60, B: 60, A: 128}
	classes := func(u, v int32) int { return 0 }
	for _, tc := range []struct {
		name  string
		opt   Options
		depth byte
		plte  []color.NRGBA
		trns  []byte
	}{
		{"default", Options{}, 1,
			[]color.NRGBA{{R: 255, G: 255, B: 255, A: 255}, {R: 40, G: 40, B: 60, A: 255}}, nil},
		{"translucent back", Options{Back: half}, 1,
			[]color.NRGBA{{R: 119, G: 119, B: 119, A: 128}, {R: 40, G: 40, B: 60, A: 255}}, []byte{128}},
		{"three colours", Options{EdgeClass: classes, Palette: []color.RGBA{{G: 255, A: 255}}}, 8,
			[]color.NRGBA{{R: 255, G: 255, B: 255, A: 255}, {R: 40, G: 40, B: 60, A: 255}, {G: 255, A: 255}}, nil},
		{"translucent edge", Options{Edge: half, EdgeClass: classes, Palette: []color.RGBA{{G: 255, A: 255}, {B: 9, A: 255}}}, 8,
			[]color.NRGBA{{R: 255, G: 255, B: 255, A: 255}, {R: 119, G: 119, B: 119, A: 128}, {G: 255, A: 255}, {B: 9, A: 255}},
			[]byte{255, 128}},
	} {
		tc.opt.Size = 61
		file, err := new(Canvas).PNG(g, l, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		chunks := pngChunks(t, file)
		var types []string
		for _, c := range chunks {
			types = append(types, c.typ)
		}
		want := "IHDR PLTE IDAT IEND"
		if tc.trns != nil {
			want = "IHDR PLTE tRNS IDAT IEND"
		}
		if got := strings.Join(types, " "); got != want {
			t.Fatalf("%s: chunks %s, want %s", tc.name, got, want)
		}
		ihdr := chunks[0].data
		if len(ihdr) != 13 || binary.BigEndian.Uint32(ihdr) != 61 || binary.BigEndian.Uint32(ihdr[4:]) != 61 {
			t.Fatalf("%s: IHDR % x", tc.name, ihdr)
		}
		if depth, ctype := ihdr[8], ihdr[9]; depth != tc.depth || ctype != 3 {
			t.Errorf("%s: depth %d colour type %d, want depth %d colour type 3", tc.name, depth, ctype, tc.depth)
		}
		var plte []byte
		for _, c := range tc.plte {
			plte = append(plte, c.R, c.G, c.B)
		}
		if !bytes.Equal(chunks[1].data, plte) {
			t.Errorf("%s: PLTE % x, want % x", tc.name, chunks[1].data, plte)
		}
		if tc.trns != nil && !bytes.Equal(chunks[2].data, tc.trns) {
			t.Errorf("%s: tRNS % x, want % x", tc.name, chunks[2].data, tc.trns)
		}
	}
}

// FuzzCanvasPNG draws random graphs at every size up to 80 px — so 1-bit
// rows end in every partial byte, and sizes under 8 put vertices on the
// guard line — with random colours and palettes, and with a NaN x and a
// +Inf y when hostile asks for them. It requires the decoded file to be
// the oracle's pixels and a reused canvas to write a fresh canvas's
// bytes. A PNG palette is not premultiplied, so pixels compare as the
// NRGBA values the file holds.
func FuzzCanvasPNG(f *testing.F) {
	f.Add(uint64(1), uint8(64), uint8(0), uint64(0), uint32(0), uint32(0), uint8(0))
	f.Add(uint64(2), uint8(7), uint8(3), uint64(99), uint32(0xff000000), uint32(0x80404040), uint8(0))
	f.Add(uint64(3), uint8(17), uint8(20), uint64(7), uint32(0x10203040), uint32(0xffffffff), uint8(0))
	f.Add(uint64(4), uint8(1), uint8(1), uint64(5), uint32(0), uint32(0x01010101), uint8(0))
	// A translucent palette; sizes 1, 7 and 9, where the zero margin of
	// the first two puts vertices on the guard line; non-finite vertices.
	f.Add(uint64(5), uint8(40), uint8(6), uint64(0x40c08000_2f), uint32(0xff1e0a0a), uint32(0), uint8(0))
	f.Add(uint64(6), uint8(0), uint8(0), uint64(0), uint32(0), uint32(0), uint8(0))
	f.Add(uint64(7), uint8(6), uint8(5), uint64(0x80ff40_1b), uint32(0), uint32(0), uint8(0))
	f.Add(uint64(8), uint8(8), uint8(0), uint64(0), uint32(0), uint32(0), uint8(0))
	f.Add(uint64(9), uint8(49), uint8(0), uint64(0), uint32(0), uint32(0), uint8(3|4<<2))
	var reused Canvas
	f.Fuzz(func(t *testing.T, seed uint64, size, palLen uint8, alphas uint64, back, edge uint32, hostile uint8) {
		nrgba := func(x uint32) color.RGBA {
			return color.RGBAModel.Convert(color.NRGBA{R: uint8(x), G: uint8(x >> 8), B: uint8(x >> 16), A: uint8(x >> 24)}).(color.RGBA)
		}
		opt := Options{Size: 1 + int(size)%80, Back: nrgba(back), Edge: nrgba(edge)}
		if n := int(palLen) % 21; n > 0 {
			for i := 0; i < n; i++ {
				a := uint32(255)
				if alphas>>i&1 != 0 {
					a = uint32(alphas>>(8+i)) & 0xff
				}
				opt.Palette = append(opt.Palette, nrgba(a<<24|uint32(seed>>i)&0xffffff))
			}
			opt.EdgeClass = func(u, v int32) int { return int(uint64(u)*31+uint64(v)+seed) % 97 }
		}
		g := gen.Road(6, 5, seed)
		l := core.RandomLayout(g.NumV, 2, seed)
		if v := int(hostile>>2) % g.NumV; hostile&1 != 0 {
			l.X()[v] = math.NaN()
		}
		if v := (int(hostile>>2) + 1) % g.NumV; hostile&2 != 0 {
			l.Y()[v] = math.Inf(1)
		}

		fresh, err := new(Canvas).PNG(g, l, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reused.Draw(&buf, g, l, opt); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), fresh) {
			t.Fatalf("reused canvas wrote %d bytes that differ from a fresh canvas's %d", buf.Len(), len(fresh))
		}
		got, err := png.Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleDraw(g, l, opt)
		if got.Bounds() != want.Bounds() {
			t.Fatalf("bounds %v, want %v", got.Bounds(), want.Bounds())
		}
		for y := 0; y < opt.Size; y++ {
			for x := 0; x < opt.Size; x++ {
				gc, wc := color.NRGBAModel.Convert(got.At(x, y)), color.NRGBAModel.Convert(want.At(x, y))
				if gc != wc {
					t.Fatalf("size %d: pixel (%d,%d) = %v, oracle has %v", opt.Size, x, y, gc, wc)
				}
			}
		}
	})
}

// BenchmarkCanvasDraw times a warm canvas on the server's two kinds of
// tile at the server's 700 px: a whole Road(100²) layout, and a 2-hop
// zoom of it, a few dozen edges on a mostly blank image.
func BenchmarkCanvasDraw(b *testing.B) {
	road := gen.Road(100, 100, 1)
	opt := core.Options{Subspace: 8, Seed: 1}
	z, err := core.Zoom(road, int32(road.NumV/2), 2, opt)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.CSR
		l    *core.Layout
	}{
		{"full", road, hde(b, road, opt)},
		{"zoom", z.Subgraph, z.Layout},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var c Canvas
			var out bytes.Buffer
			draw := func() {
				out.Reset()
				if err := c.Draw(&out, tc.g, tc.l, Options{Size: 700}); err != nil {
					b.Fatal(err)
				}
			}
			draw()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				draw()
			}
			b.ReportMetric(float64(out.Len()), "png_bytes")
		})
	}
}

// TestDrawSurvivesHostileCoordinates: one vertex of a 3×3 grid at NaN,
// ±Inf or 1e300 used to make the line walk run ~2⁶³ steps. The draw has
// to return, and the edges between the other vertices have to be there.
func TestDrawSurvivesHostileCoordinates(t *testing.T) {
	g := gen.Grid2D(3, 3)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, math.MaxFloat64} {
		for _, svg := range []bool{false, true} {
			l := &core.Layout{Coords: linalg.NewDense(9, 2)}
			for v := 0; v < 9; v++ {
				l.X()[v], l.Y()[v] = float64(v%3), float64(v/3)
			}
			l.X()[4] = bad // the centre: 4 of the 12 edges touch it
			done := make(chan error, 1)
			var buf bytes.Buffer
			go func() {
				if svg {
					done <- DrawSVG(&buf, g, l, Options{Size: 90})
				} else {
					done <- Draw(&buf, g, l, Options{Size: 90})
				}
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("x=%v svg=%v: still drawing after 5s", bad, svg)
			}
			finite := !math.IsNaN(bad) && !math.IsInf(bad, 0)
			if svg {
				want := 8
				if finite {
					want = 12
				}
				if got := strings.Count(buf.String(), "<line "); got != want {
					t.Errorf("x=%v: SVG has %d lines, want %d", bad, got, want)
				}
				if strings.Contains(buf.String(), "NaN") || strings.Contains(buf.String(), "Inf") {
					t.Errorf("x=%v: SVG carries a non-finite coordinate", bad)
				}
				continue
			}
			img, err := png.Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			inked := 0
			for y := 0; y < 90; y++ {
				for x := 0; x < 90; x++ {
					if r, _, _, _ := img.At(x, y).RGBA(); r != 0xffff {
						inked++
					}
				}
			}
			// The 8 rim edges of an undistorted 3×3 grid ink 4·(90−32) pixels;
			// a huge finite x squashes the rest into one column.
			if min := 50; inked < min {
				t.Errorf("x=%v: %d edge pixels, want at least %d", bad, inked, min)
			}
			if !finite && inked != 4*(90-32) {
				t.Errorf("x=%v: %d edge pixels, want the rim's %d", bad, inked, 4*(90-32))
			}
		}
	}
}

// TestEdgeClassOutOfRange: a negative class (an unassigned partition
// label) draws in Edge instead of indexing Palette[-1], and a palette
// longer than an indexed image holds wraps modulo the 254 usable entries
// — in both renderers.
func TestEdgeClassOutOfRange(t *testing.T) {
	g := gen.Path(2)
	l := &core.Layout{Coords: linalg.NewDense(2, 2)}
	l.X()[1] = 1
	long := make([]color.RGBA, 300)
	for i := range long {
		long[i] = color.RGBA{R: uint8(i), G: uint8(i >> 8), B: 7, A: 255}
	}
	edge := color.RGBA{R: 1, G: 2, B: 3, A: 255}
	for _, tc := range []struct {
		name    string
		class   int
		palette []color.RGBA
		want    color.RGBA
	}{
		{"negative", -1, long[:3], edge},
		{"very negative", math.MinInt, long[:3], edge},
		{"in range", 2, long[:3], long[2]},
		{"wraps short palette", 7, long[:3], long[1]},
		{"last usable", 253, long, long[253]},
		{"wraps at 254", 254, long, long[0]},
		{"wraps past 254", 299, long, long[45]},
		{"empty palette", 1, nil, edge},
	} {
		opt := Options{Size: 40, Edge: edge, Palette: tc.palette, EdgeClass: func(u, v int32) int { return tc.class }}
		var buf bytes.Buffer
		if err := Draw(&buf, g, l, opt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		img, err := png.Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := color.RGBAModel.Convert(img.At(20, 16)).(color.RGBA); got != tc.want {
			t.Errorf("%s: PNG edge pixel %v, want %v", tc.name, got, tc.want)
		}
		buf.Reset()
		if err := DrawSVG(&buf, g, l, opt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		stroke := fmt.Sprintf(`stroke="#%02x%02x%02x"`, tc.want.R, tc.want.G, tc.want.B)
		if !strings.Contains(buf.String(), stroke) {
			t.Errorf("%s: SVG lacks %s: %s", tc.name, stroke, buf.String())
		}
	}
}

// failAfter fails every Write once n bytes have gone through.
type failAfter struct{ n int }

var errSink = errors.New("sink is full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n -= len(p); f.n < 0 {
		return 0, errSink
	}
	return len(p), nil
}

func TestDrawSVGReturnsWriteError(t *testing.T) {
	g := gen.Grid2D(40, 40) // ~270 KB of SVG: several flushes of the 64 KB buffer
	l := hde(t, g, core.Options{Subspace: 6, Seed: 1})
	for _, n := range []int{0, 100_000} {
		if err := DrawSVG(&failAfter{n}, g, l, Options{}); !errors.Is(err, errSink) {
			t.Errorf("sink failing after %d bytes: DrawSVG returned %v", n, err)
		}
	}
	if err := Draw(&failAfter{0}, g, l, Options{Size: 64}); !errors.Is(err, errSink) {
		t.Errorf("Draw returned %v for a failing writer", err)
	}
}

// TestSVGAndPNGAgreeOnPixels: both renderers go through pixelMap, so
// every SVG endpoint rounds to a pixel the PNG inked.
func TestSVGAndPNGAgreeOnPixels(t *testing.T) {
	g := gen.Grid2D(7, 5)
	l := hde(t, g, core.Options{Subspace: 5, Seed: 9})
	var svg, pngBuf bytes.Buffer
	if err := DrawSVG(&svg, g, l, Options{Size: 200}); err != nil {
		t.Fatal(err)
	}
	if err := Draw(&pngBuf, g, l, Options{Size: 200}); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&pngBuf)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Size: 200}.withDefaults()
	m := newPixelMap(l, float64(opt.Margin), float64(opt.Size))
	for v := int32(0); int(v) < g.NumV; v++ {
		x, y, ok := m.at(v)
		if !ok {
			t.Fatalf("vertex %d not drawable", v)
		}
		if !strings.Contains(svg.String(), fmt.Sprintf(`"%.2f" y1="%.2f"`, x, y)) &&
			!strings.Contains(svg.String(), fmt.Sprintf(`x2="%.2f" y2="%.2f"`, x, y)) {
			t.Fatalf("vertex %d at (%.2f,%.2f) is no SVG endpoint", v, x, y)
		}
		if r, _, _, _ := img.At(int(x+0.5), int(y+0.5)).RGBA(); r == 0xffff {
			t.Fatalf("vertex %d: PNG pixel (%d,%d) is background", v, int(x+0.5), int(y+0.5))
		}
	}
}

// canvasBudget mirrors the "canvas_draw" entry of perf/alloc_budget.json.
func canvasBudget(t *testing.T) (allocs float64, bytesPerOp uint64) {
	t.Helper()
	raw, err := os.ReadFile("../../perf/alloc_budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		SteadyState map[string]struct {
			AllocsPerOp float64 `json:"allocs_per_op"`
			BytesPerOp  uint64  `json:"bytes_per_op"`
		} `json:"steady_state"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	b, ok := f.SteadyState["canvas_draw"]
	if !ok {
		t.Fatal("perf/alloc_budget.json has no steady_state.canvas_draw")
	}
	return b.AllocsPerOp, b.BytesPerOp
}

// bytesPerDraw is the heap a warm canvas allocates per draw.
func bytesPerDraw(t *testing.T, c *Canvas, g *graph.CSR, l *core.Layout, opt Options) uint64 {
	t.Helper()
	draw := func() {
		if err := c.Draw(io.Discard, g, l, opt); err != nil {
			t.Fatal(err)
		}
	}
	draw()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		draw()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestCanvasSteadyStateAllocs is the render half of the allocation gate:
// a warm canvas stays inside the budget recorded next to the ParHDE ones,
// and what it does allocate is a constant — not a function of the image
// size or the graph.
func TestCanvasSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	maxAllocs, maxBytes := canvasBudget(t)
	layouts := map[int]*core.Layout{}
	graphs := map[int]*graph.CSR{}
	for _, side := range []int{50, 100, 150} {
		graphs[side] = gen.Road(side, side, 1)
		layouts[side] = hde(t, graphs[side], core.Options{Subspace: 8, Seed: 1})
	}
	var c Canvas
	base := bytesPerDraw(t, &c, graphs[100], layouts[100], Options{Size: 700})
	allocs := testing.AllocsPerRun(20, func() {
		if err := c.Draw(io.Discard, graphs[100], layouts[100], Options{Size: 700}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm Canvas.Draw of Road(100²) at 700px: %.0f allocs, %d bytes", allocs, base)
	if allocs > maxAllocs || base > maxBytes {
		t.Errorf("warm draw allocates %.0f objects / %d bytes, budget is %.0f / %d — if intentional, raise canvas_draw in perf/alloc_budget.json",
			allocs, base, maxAllocs, maxBytes)
	}
	// "The same" is to within the runtime's own stray bytes between two
	// ReadMemStats; the smallest buffer a draw could leak is its ~9 KB output.
	const stray = 256
	for _, tc := range []struct{ side, size int }{{100, 300}, {100, 900}, {50, 700}, {150, 700}} {
		if got := bytesPerDraw(t, &c, graphs[tc.side], layouts[tc.side], Options{Size: tc.size}); got > base+stray {
			t.Errorf("Road(%d²) at %dpx allocates %d bytes per draw, Road(100²) at 700px %d: something scales with the input",
				tc.side, tc.size, got, base)
		}
	}
}

// liveHeap is the heap still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestCanvasRetainedBytes bounds what a warm canvas keeps between draws of
// a two-colour Road(100²) at 700 px, the server's full tile: its zlib
// state, the 1-bit scanlines, the file and two int32 per vertex. An image
// held a byte per pixel beside the scanlines would add 490 KB.
func TestCanvasRetainedBytes(t *testing.T) {
	const size, slack = 700, 32 << 10
	road := gen.Road(100, 100, 1)
	l := hde(t, road, core.Options{Subspace: 8, Seed: 1})
	rows := make([]byte, size*(1+(size+7)/8))

	// The zlib state, warmed by the same amount of input as the canvas's.
	before := liveHeap()
	zw, err := zlib.NewWriterLevel(io.Discard, zlib.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(rows); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	zstate := liveHeap() - before
	runtime.KeepAlive(zw)

	before = liveHeap()
	c := new(Canvas)
	for i := 0; i < 2; i++ {
		if err := c.Draw(io.Discard, road, l, Options{Size: size}); err != nil {
			t.Fatal(err)
		}
	}
	held := liveHeap() - before
	runtime.KeepAlive(c)
	file := c.out.Len()
	budget := zstate + uint64(len(rows)+file) + 8*uint64(road.NumV) + slack
	t.Logf("warm canvas holds %d bytes: zlib state %d, rows %d, file %d, %d vertices; budget %d",
		held, zstate, len(rows), file, road.NumV, budget)
	if held > budget {
		t.Errorf("a warm canvas holds %d bytes, over the %d of its zlib state, scanlines, file and pixel coordinates (+%d slack)",
			held, budget, slack)
	}
}

func TestDrawProducesDecodablePNG(t *testing.T) {
	g := gen.Grid2D(10, 10)
	lay, _, err := core.ParHDE(g, core.Options{Subspace: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Draw(&buf, g, lay, Options{Size: 120}); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := img.Bounds()
	if b.Dx() != 120 || b.Dy() != 120 {
		t.Fatalf("image %dx%d", b.Dx(), b.Dy())
	}
	// At least one pixel must be non-background (edges were drawn).
	found := false
	for y := 0; y < 120 && !found; y++ {
		for x := 0; x < 120; x++ {
			r, g2, b2, _ := img.At(x, y).RGBA()
			if r != 0xffff || g2 != 0xffff || b2 != 0xffff {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("image is blank")
	}
}

func TestDrawWithEdgeClasses(t *testing.T) {
	g := gen.Grid2D(6, 6)
	lay, _, err := core.ParHDE(g, core.Options{Subspace: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	opts := Options{
		Size: 80,
		EdgeClass: func(u, v int32) int {
			if (u+v)%2 == 0 {
				return 0
			}
			return 1
		},
		Palette: []color.RGBA{
			{R: 255, A: 255},
			{B: 255, A: 255},
		},
	}
	if err := Draw(&buf, g, lay, opts); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reds, blues := 0, 0
	b := img.Bounds()
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			r, g2, b2, _ := img.At(x, y).RGBA()
			if r == 0xffff && g2 == 0 && b2 == 0 {
				reds++
			}
			if b2 == 0xffff && g2 == 0 && r == 0 {
				blues++
			}
		}
	}
	if reds == 0 || blues == 0 {
		t.Fatalf("edge classes not rendered: %d red, %d blue pixels", reds, blues)
	}
}

func TestDrawDefaultsApplied(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Size != 800 || o.Margin != 16 || o.Edge.A == 0 || o.Back.A == 0 {
		t.Fatalf("defaults %+v", o)
	}
	// Degenerate margin falls back.
	o = Options{Size: 10, Margin: 6}.withDefaults()
	if o.Margin*2 >= o.Size {
		t.Fatalf("margin %d not clamped for size %d", o.Margin, o.Size)
	}
}

func TestDrawSVGWellFormed(t *testing.T) {
	g := gen.Grid2D(8, 8)
	lay, _, err := core.ParHDE(g, core.Options{Subspace: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := DrawSVG(&buf, g, lay, Options{Size: 200}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatalf("not an SVG document: %.80s", out)
	}
	// Must be parseable XML.
	dec := xml.NewDecoder(strings.NewReader(out))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("invalid XML: %v", err)
		}
	}
	// One line element per edge plus svg/rect.
	if got := strings.Count(out, "<line "); int64(got) != g.NumEdges() {
		t.Fatalf("%d line elements for %d edges", got, g.NumEdges())
	}
}

func TestDrawSVGEdgeClasses(t *testing.T) {
	g := gen.Path(4)
	lay := core.RandomLayout(4, 2, 1)
	var buf bytes.Buffer
	opts := Options{
		Size:      100,
		EdgeClass: func(u, v int32) int { return int(u) % 2 },
		Palette: []color.RGBA{
			{R: 255, A: 255},
			{G: 255, A: 255},
		},
	}
	if err := DrawSVG(&buf, g, lay, opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "#ff0000") || !strings.Contains(out, "#00ff00") {
		t.Fatalf("palette colors missing: %s", out)
	}
}

func TestProject3D(t *testing.T) {
	g := gen.Mesh3D(6, 6, 6)
	lay, _, err := core.ParHDE(g, core.Options{Subspace: 10, Dims: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	proj := Project3D(lay)
	if proj.Dims() != 2 || proj.NumVertices() != g.NumV {
		t.Fatalf("projection shape %dx%d", proj.NumVertices(), proj.Dims())
	}
	// 2-D layouts pass through untouched.
	two := core.RandomLayout(10, 2, 1)
	if Project3D(two) != two {
		t.Fatal("2D layout should be returned as-is")
	}
	// 3-D layouts render directly.
	var buf bytes.Buffer
	if err := Draw(&buf, g, lay, Options{Size: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := png.Decode(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDOT(t *testing.T) {
	g := gen.WithRandomWeights(gen.Grid2D(5, 5), 7, 1)
	lay, _, err := core.ParHDE(g.Unweighted(), core.Options{Subspace: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, lay, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "graph parhde {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Fatalf("malformed DOT: %.60s", out)
	}
	if got := strings.Count(out, "pos="); int64(got) != int64(g.NumV) {
		t.Fatalf("%d pos attributes for %d vertices", got, g.NumV)
	}
	if got := strings.Count(out, " -- "); int64(got) != g.NumEdges() {
		t.Fatalf("%d edges in DOT for m=%d", got, g.NumEdges())
	}
	if !strings.Contains(out, "weight=") {
		t.Fatal("weighted graph lost weights in DOT")
	}
}

// TestWriteDOTNonFiniteCoordinate: one +Inf coordinate of a 3×3 grid
// drawn as the grid itself leaves every other vertex where the finite
// bounding box puts it (it once put all of them at the origin), and its
// own vertex keeps its edges but gets no position.
func TestWriteDOTNonFiniteCoordinate(t *testing.T) {
	g := gen.Grid2D(3, 3)
	coords := linalg.NewDense(9, 2)
	for v := 0; v < 9; v++ {
		coords.Set(v, 0, float64(v%3))
		coords.Set(v, 1, float64(v/3))
	}
	coords.Set(4, 0, math.Inf(1))
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, &core.Layout{Coords: coords}, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for v := 0; v < 9; v++ {
		want := fmt.Sprintf("  %d [pos=\"%.4f,%.4f!\"];\n", v, 5*float64(v%3), 5*float64(v/3))
		if v == 4 {
			want = "  4;\n"
		}
		if !strings.Contains(out, want) {
			t.Errorf("vertex %d: no %q in\n%s", v, want, out)
		}
	}
	if got := strings.Count(out, " -- "); int64(got) != g.NumEdges() {
		t.Fatalf("%d edges in DOT for m=%d", got, g.NumEdges())
	}
}
