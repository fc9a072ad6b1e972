package graph

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/parallel"
)

// ingestN is the vertex count of the ingest inputs: small enough that
// every budget up to 4 splits their build into 4 chunks (a chunk takes 4n
// edges).
const ingestN = 3000

// ingestText is a weighted edge list over ingestN vertices in three
// components, with ids offset by base (1 for MatrixMarket), at least size
// bytes long. It holds comment lines (of each given marker), blank lines,
// CRLF line ends, self loops and parallel edges with different weights.
func ingestText(size, base int, comments string) string {
	r := rand.New(rand.NewSource(7))
	cuts := []int{0, 2000, 2900, ingestN}
	var sb strings.Builder
	var prev [][2]int
	for i := 0; sb.Len() < size; i++ {
		end := "\n"
		if i%5 == 0 {
			end = "\r\n"
		}
		switch {
		case i%53 == 0:
			fmt.Fprintf(&sb, "%c line %d%s", comments[i%len(comments)], i, end)
		case i%41 == 0:
			sb.WriteString(end)
		case i%29 == 0:
			v := r.Intn(ingestN) + base
			fmt.Fprintf(&sb, "%d %d %d.5%s", v, v, 1+r.Intn(9), end)
		case i%7 == 0 && len(prev) > 0:
			e := prev[r.Intn(len(prev))] // reversed, with a weight of its own
			fmt.Fprintf(&sb, "%d %d %d.25%s", e[1]+base, e[0]+base, 1+r.Intn(9), end)
		default:
			c := r.Intn(3)
			lo, hi := cuts[c], cuts[c+1]
			u, v := lo+r.Intn(hi-lo), lo+r.Intn(hi-lo)
			prev = append(prev, [2]int{u, v})
			fmt.Fprintf(&sb, "%d %d %d.%d%s", u+base, v+base, 1+r.Intn(9), r.Intn(10), end)
		}
	}
	return sb.String()
}

// ingestInputs are the two text formats of one ≈ 1 MiB input: at least
// 4 parts of 64 KiB each, so every budget up to 4 parses it in 4 parts.
func ingestInputs() map[string]string {
	mtx := "%%MatrixMarket matrix coordinate real general\n" +
		fmt.Sprintf("%d %d 0\n", ingestN, ingestN) + ingestText(1<<20, 1, "%")
	return map[string]string{"edges": ingestText(1<<20, 0, "#%"), "mtx": mtx}
}

// sameCSR reports whether a and b are the same graph, bit for bit.
func sameCSR(a, b *CSR) bool {
	if a.NumV != b.NumV || !slices.Equal(a.Offsets, b.Offsets) || !slices.Equal(a.Adj, b.Adj) ||
		(a.Weights == nil) != (b.Weights == nil) || len(a.Weights) != len(b.Weights) {
		return false
	}
	for i, w := range a.Weights {
		if math.Float64bits(w) != math.Float64bits(b.Weights[i]) {
			return false
		}
	}
	return true
}

// denseGraph is a weighted graph with ≈ 80 arcs per vertex, so that
// Validate splits its symmetry walk into 4 ranges on budget 4.
func denseGraph(t *testing.T) *CSR {
	return mustFromEdges(t, 1000, randomEdges(1000, 40000, 9), BuildOptions{Weighted: true})
}

// TestReadBudgetInvariance: Read builds the same CSR, bit for bit, from
// either text format, weighted or not, with or without the component
// extraction, from a sized and from an unsized reader, on budgets 1–4.
func TestReadBudgetInvariance(t *testing.T) {
	for format, text := range ingestInputs() {
		for _, opt := range []BuildOptions{{}, {Weighted: true}, {KeepAllComponents: true}, {Weighted: true, KeepAllComponents: true}} {
			var want *CSR
			for b := 1; b <= 4; b++ {
				for _, sized := range []bool{true, false} {
					r := io.Reader(strings.NewReader(text))
					if !sized {
						r = struct{ io.Reader }{r}
					}
					opt.Budget = parallel.FixedBudget(b)
					g, err := Read(r, format, opt)
					if err != nil {
						t.Fatalf("%s %+v: %v", format, opt, err)
					}
					if want == nil {
						want = g
						if err := g.Validate(parallel.FixedBudget(1)); err != nil {
							t.Fatalf("%s %+v: %v", format, opt, err)
						}
						if opt.KeepAllComponents && g.NumV != ingestN || !opt.KeepAllComponents && g.NumV != 2000 {
							t.Fatalf("%s %+v: %d vertices", format, opt, g.NumV)
						}
						continue
					}
					if !sameCSR(g, want) {
						t.Fatalf("%s %+v, sized %v: budget %d built another graph", format, opt, sized, b)
					}
				}
			}
		}
	}
}

// TestFromEdgesBudgetInvariance: FromEdges on budgets 1–4 builds the
// graph a serial fill in list order builds: the same CSR bit for bit,
// weighted (where the max-merge meets the duplicates in list order) and
// not, and every row of a list sorted by (u, v) is filled in order.
func TestFromEdgesBudgetInvariance(t *testing.T) {
	_, edges, err := ReadEdgeList(strings.NewReader(ingestInputs()["edges"]), parallel.FixedBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, weighted := range []bool{false, true} {
		var want *CSR
		for b := 1; b <= 4; b++ {
			g := mustFromEdges(t, ingestN, edges, BuildOptions{Weighted: weighted, KeepAllComponents: true, Budget: parallel.FixedBudget(b)})
			if want == nil {
				want = g
			} else if !sameCSR(g, want) {
				t.Fatalf("weighted %v: budget %d built another graph", weighted, b)
			}
		}
		// Rebuilding from the graph's own arcs, in row order, gives it back.
		var arcs []Edge
		for v := int32(0); int(v) < want.NumV; v++ {
			for k := want.Offsets[v]; k < want.Offsets[v+1]; k++ {
				if u := want.Adj[k]; v < u {
					e := Edge{U: v, V: u, W: 1}
					if weighted {
						e.W = want.Weights[k]
					}
					arcs = append(arcs, e)
				}
			}
		}
		for b := 1; b <= 4; b++ {
			g := mustFromEdges(t, ingestN, arcs, BuildOptions{Weighted: weighted, KeepAllComponents: true, Budget: parallel.FixedBudget(b)})
			if !sameCSR(g, want) {
				t.Fatalf("weighted %v: budget %d rebuilt another graph from its arcs", weighted, b)
			}
		}
	}
}

// TestReadBinaryBudgetInvariance: ReadBinary (its Validate split into up
// to 4 ranges) and Permute give the same CSR, bit for bit, on budgets 1–4.
func TestReadBinaryBudgetInvariance(t *testing.T) {
	src := denseGraph(t)
	perm := RandomPermutation(src.NumV, 3)
	for _, g := range []*CSR{src, src.Unweighted()} {
		var raw strings.Builder
		if err := WriteBinary(&raw, g); err != nil {
			t.Fatal(err)
		}
		var wantPerm *CSR
		for b := 1; b <= 4; b++ {
			bud := parallel.FixedBudget(b)
			got, err := ReadBinary(strings.NewReader(raw.String()), bud)
			if err != nil {
				t.Fatalf("budget %d: %v", b, err)
			}
			if !sameCSR(got, g) {
				t.Fatalf("budget %d read another graph", b)
			}
			p, err := Permute(g, perm, bud)
			if err != nil {
				t.Fatal(err)
			}
			if wantPerm == nil {
				wantPerm = p
				if err := p.Validate(bud); err != nil {
					t.Fatal(err)
				}
			} else if !sameCSR(p, wantPerm) {
				t.Fatalf("budget %d permuted into another graph", b)
			}
		}
	}
}

// TestIngestErrorsBudgetInvariance: a malformed line in one part, or one
// in every part, is reported with the same text and line number on every
// budget, the first in file order; FromEdges reports the first bad edge in
// list order, whichever chunk holds it.
func TestIngestErrorsBudgetInvariance(t *testing.T) {
	inputs := ingestInputs()
	bad := map[string]string{"edges": "7 x\n", "mtx": fmt.Sprintf("%d 1 1\n", ingestN+1)}
	for format, text := range inputs {
		// A cut point inside each of the 4 parts of budget 4 (and so of
		// every coarser split too), moved to a line start.
		var cuts []int
		for k := 0; k < 4; k++ {
			at := (2*k + 1) * len(text) / 8
			cuts = append(cuts, at+strings.IndexByte(text[at:], '\n')+1)
		}
		variants := map[string][]int{"every part": cuts}
		for k, c := range cuts {
			variants[fmt.Sprintf("part %d", k)] = []int{c}
		}
		for name, at := range variants {
			var sb strings.Builder
			last := 0
			for _, c := range at {
				sb.WriteString(text[last:c])
				sb.WriteString(bad[format])
				last = c
			}
			sb.WriteString(text[last:])
			input := sb.String()
			var want error
			for b := 1; b <= 4; b++ {
				_, _, err := ReadEdges(strings.NewReader(input), format, parallel.FixedBudget(b))
				if err == nil {
					t.Fatalf("%s, %s: budget %d accepted a malformed line", format, name, b)
				}
				if want == nil {
					want = err
				} else if err.Error() != want.Error() {
					t.Fatalf("%s, %s: budget %d says %q, budget 1 %q", format, name, b, err, want)
				}
			}
			if format == "edges" {
				if _, _, oracle := readEdgeListOracle(strings.NewReader(input)); oracle == nil || oracle.Error() != want.Error() {
					t.Fatalf("%s, %s: error %q, oracle %v", format, name, want, oracle)
				}
			}
		}
	}

	edges := randomEdges(1000, 40000, 5)
	faults := []func(e *Edge){
		func(e *Edge) { e.V = 1000 },
		func(e *Edge) { e.U = -1 },
		func(e *Edge) { e.W = math.NaN() },
		func(e *Edge) { e.W = -2 },
	}
	for k := 0; k < 4; k++ {
		// Fault k in chunk k, and fault 3 − k in every later chunk.
		list := slices.Clone(edges)
		for c := k; c < 4; c++ {
			f := faults[k]
			if c > k {
				f = faults[3-k]
			}
			f(&list[c*len(list)/4+17])
		}
		wantErr := edgeError(list[k*len(list)/4+17], 1000, true)
		for b := 1; b <= 4; b++ {
			_, err := FromEdges(1000, list, BuildOptions{Weighted: true, Budget: parallel.FixedBudget(b)})
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("fault in chunk %d: budget %d says %v, want %v", k, b, err, wantErr)
			}
		}
	}
}

// TestValidateErrorsBudgetInvariance corrupts a graph whose symmetry walk
// splits into 4 ranges in ways each range meets, and checks every budget
// and every split reports what the serial walk reports.
func TestValidateErrorsBudgetInvariance(t *testing.T) {
	g := denseGraph(t)
	if r := len(g.Adj) / (8 * g.NumV); r < 4 {
		t.Fatalf("%d arcs per vertex: the walk would split into %d ranges, want 4", len(g.Adj)/g.NumV, r)
	}
	rows := make([][]int32, g.NumV)
	wts := make([][]float64, g.NumV)
	for v := range rows {
		rows[v] = slices.Clone(g.Neighbors(int32(v)))
		wts[v] = slices.Clone(g.NeighborWeights(int32(v)))
	}
	corrupt := map[string]func(rows [][]int32, wts [][]float64){
		"weight in each quarter": func(_ [][]int32, wts [][]float64) {
			for k := 0; k < 4; k++ {
				wts[(2*k+1)*len(wts)/8][0] += 1
			}
		},
		"late arc dropped": func(rows [][]int32, wts [][]float64) {
			v := 7 * len(rows) / 8
			rows[v], wts[v] = rows[v][1:], wts[v][1:]
		},
		"early row's last arc dropped": func(rows [][]int32, wts [][]float64) {
			v := 3
			rows[v], wts[v] = rows[v][:len(rows[v])-1], wts[v][:len(wts[v])-1]
		},
		"arc dropped in each quarter": func(rows [][]int32, wts [][]float64) {
			for k := 0; k < 4; k++ {
				v := (2*k + 1) * len(rows) / 8
				rows[v], wts[v] = rows[v][:len(rows[v])-1], wts[v][:len(wts[v])-1]
			}
		},
		"self loop in the last quarter": func(rows [][]int32, wts [][]float64) {
			v := int32(7 * len(rows) / 8)
			i, _ := slices.BinarySearch(rows[v], v)
			rows[v], wts[v] = slices.Insert(rows[v], i, v), slices.Insert(wts[v], i, 1)
		},
	}
	for name, f := range corrupt {
		cr := make([][]int32, len(rows))
		cw := make([][]float64, len(wts))
		for v := range rows {
			cr[v], cw[v] = slices.Clone(rows[v]), slices.Clone(wts[v])
		}
		f(cr, cw)
		bad := csrFromRows(cr, cw)
		want := bad.validate(1, 1)
		if want == nil {
			t.Fatalf("%s: accepted", name)
		}
		for p := 1; p <= 4; p++ {
			for _, err := range []error{bad.validate(p, p), bad.Validate(parallel.FixedBudget(p))} {
				if err == nil || err.Error() != want.Error() {
					t.Fatalf("%s: split %d says %v, serial %v", name, p, err, want)
				}
			}
		}
	}
}
