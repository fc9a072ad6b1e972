package linalg

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// Oracle suite for the bit-exact inner loops: fusedRows, stpSweep, the
// multi-dot's dDots8 and the multi-axpy's sub8, sub2 and sub1 against the
// Go kernels fusedRowsGo, stpSweepGo, two dDot4 calls, sub8Go, sub2Go and
// sub1Go. On amd64 the former are the SSE2
// assembly of kernels_amd64.s; elsewhere they are the Go kernels and the
// suite holds trivially. Operands carry NaN, ±Inf, −0 and subnormals, the
// values whose handling a reordered or fused operation changes first.

// specials are the IEEE values specialVec sprinkles among normal ones.
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, -2.5e-310, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64,
}

// specialVec returns n normal values, about one in every rate of them (none
// for rate 0) replaced by one of the specials.
func specialVec(n, rate int, rng *rand.Rand) []float64 {
	v := randVec(n, rng)
	for i := range v {
		if rate > 0 && rng.Intn(rate) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		}
	}
	return v
}

// sameBits reports whether a and b have the same bits or are both NaN:
// Go fixes no operand order for a commutative operation, so which
// payload survives an operation on two NaNs is unspecified.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// assertSameBits fails at the first element where got and want differ.
func assertSameBits(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), Go kernel %v (%#x)", tag, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// oracleGraph is a KeepAllComponents graph past two PackRows chunks with
// isolated vertices, a hub whose leaves have degree one and random edges
// among the rest, so adjacencies run from empty to a few hundred entries.
func oracleGraph(rng *rand.Rand) *graph.CSR {
	const n = 2*PackRows + 77
	var edges []graph.Edge
	for v := 20; v < 320; v++ { // vertices 0–9 stay isolated
		edges = append(edges, graph.Edge{U: 10, V: int32(v)})
	}
	for i := 0; i < 6*n; i++ {
		u, v := 320+rng.Intn(n-320), 320+rng.Intn(n-320)
		if rng.Intn(4) == 0 {
			v = 10 + rng.Intn(10) // a few more high-degree vertices
		}
		edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
	}
	g, err := graph.FromEdges(n, edges, graph.BuildOptions{KeepAllComponents: true})
	if err != nil {
		panic(err)
	}
	return g
}

// TestFusedRowsMatchesGo: the L·S walk equals fusedRowsGo bit for bit
// at every width 1–70 (one to three SSE2 walks, odd widths whose last pair
// overlaps), unweighted and with weights that include the specials (which
// fusedRows hands to fusedRowsGo), over
// row ranges that start and end inside, on and across PackRows chunks, into
// a column view whose stride exceeds its height; no float outside the view
// is written.
func TestFusedRowsMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	g := oracleGraph(rng)
	weighted := *g
	weighted.Weights = specialVec(len(g.Adj), 41, rng)
	n := g.NumV
	if g.Degree(0) != 0 || g.Degree(20) != 1 {
		t.Fatalf("degrees %d and %d, want an isolated vertex and a leaf", g.Degree(0), g.Degree(20))
	}
	ranges := [][2]int{{0, n}, {1, PackRows + 5}, {PackRows - 1, PackRows + 1}, {n - 1, n}, {7, 7}}
	for cols := 1; cols <= 70; cols++ {
		srm := specialVec(n*cols, 97, rng)
		deg := specialVec(n, 53, rng)
		for _, gr := range []*graph.CSR{g, &weighted} {
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				h := hi - lo
				stride := h + 3
				got, want := make([]float64, stride*cols), make([]float64, stride*cols)
				for i := range got {
					got[i], want[i] = 1234.5+float64(i), 1234.5+float64(i)
				}
				fusedRows(gr, deg, srm, strided{got, stride, h}, lo, hi, cols)
				fusedRowsGo(gr, deg, srm, strided{want, stride, h}, lo, hi, cols)
				tag := fmt.Sprintf("cols=%d weighted=%v rows [%d,%d)", cols, gr.Weighted(), lo, hi)
				assertSameBits(t, tag, got, want)
			}
		}
	}
}

// TestFusedRowsRefusesShortAdjacency: offsets that run past the end of
// Adj panic before any neighbour is read, on every path of the walk.
func TestFusedRowsRefusesShortAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	g := oracleGraph(rng)
	short := *g
	short.Adj = g.Adj[: len(g.Adj)-1 : len(g.Adj)-1]
	n := g.NumV
	for _, cols := range []int{1, 20, 64} {
		srm, deg := randVec(n*cols, rng), randVec(n, rng)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("cols=%d: walked offsets past len(Adj) without a panic", cols)
				}
			}()
			fusedRows(&short, deg, srm, strided{make([]float64, n*cols), n, n}, 0, n, cols)
		}()
	}
}

// TestSTPSweepMatchesGo: the SᵀP sweep equals stpSweepGo bit for bit on
// the whole k×k panel at every width 1–70, over chunks of 0, 1, 7 and
// PackRows rows, a P view whose stride exceeds its height, and running
// panel values and operands that include the specials.
func TestSTPSweepMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for k := 1; k <= 70; k++ {
		for _, h := range []int{0, 1, 7, PackRows} {
			s := specialVec(h*k, 211, rng)
			p := strided{specialVec((h+5)*k, 211, rng), h + 5, h}
			panel := specialVec(k*k, 31, rng)
			got, want := append([]float64(nil), panel...), append([]float64(nil), panel...)
			stpSweep(s, p, k, got)
			stpSweepGo(s, p, k, want)
			assertSameBits(t, fmt.Sprintf("k=%d h=%d", k, h), got, want)
		}
	}
}

// TestMultiAxpyMatchesGo: sub8, sub2 and sub1 equal sub8Go, sub2Go and
// sub1Go bit for bit at every length 0–70, even and odd, from an aligned
// and an unaligned start, with coefficients normal or special.
func TestMultiAxpyMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for n := 0; n <= 70; n++ {
		for _, off := range []int{0, 1} {
			for _, rate := range []int{0, 3} {
				var c [PanelCols][]float64
				for j := range c {
					c[j] = specialVec(n+off, 37, rng)[off:]
				}
				f := specialVec(PanelCols, rate, rng)
				work := specialVec(n+off, 37, rng)[off:]
				tag := fmt.Sprintf("n=%d offset=%d coefficient specials=%v", n, off, rate > 0)
				got := append(make([]float64, off, n+off), work...)[off:]
				want := append([]float64(nil), work...)
				sub8(got, f, c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7])
				sub8Go(want, f, c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7])
				assertSameBits(t, tag+" sub8", got, want)
				sub2(got, f[3:5], c[5], c[2])
				sub2Go(want, f[3:5], c[5], c[2])
				assertSameBits(t, tag+" sub2", got, want)
				sub1(got, f[6], c[4])
				sub1Go(want, f[6], c[4])
				assertSameBits(t, tag+" sub1", got, want)
			}
		}
	}
}

// TestMultiDotMatchesGo: dDots8 equals two dDot4 calls bit for bit at
// every length 0–70 from an aligned and an unaligned start, with d and
// without, on operands that include the specials.
func TestMultiDotMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	for n := 0; n <= 70; n++ {
		for _, off := range []int{0, 1} {
			var c [PanelCols][]float64
			for j := range c {
				c[j] = specialVec(n+off, 29, rng)[off:]
			}
			work, dw := specialVec(n+off, 29, rng)[off:], specialVec(n+off, 29, rng)[off:]
			for _, d := range [][]float64{nil, dw} {
				tag := fmt.Sprintf("n=%d offset=%d weighted=%v", n, off, d != nil)
				got, want := make([]float64, PanelCols), make([]float64, PanelCols)
				dDots8(c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7], work, d, got)
				want[0], want[1], want[2], want[3] = dDot4(c[0], c[1], c[2], c[3], work, d)
				want[4], want[5], want[6], want[7] = dDot4(c[4], c[5], c[6], c[7], work, d)
				assertSameBits(t, tag, got, want)
			}
		}
	}
}

// TestKernelsAsmIsGenerated: kernels_amd64.s is what mkasm.go writes.
func TestKernelsAsmIsGenerated(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to run mkasm.go")
	}
	out := filepath.Join(t.TempDir(), "kernels_amd64.s")
	if msg, err := exec.Command(gobin, "run", "mkasm.go", "-out", out).CombinedOutput(); err != nil {
		t.Fatalf("go run mkasm.go: %v\n%s", err, msg)
	}
	want, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("kernels_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("kernels_amd64.s differs from mkasm.go's output: run go generate ./internal/linalg/")
	}
}
