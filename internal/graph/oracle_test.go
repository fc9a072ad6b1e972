package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// readEdgeListOracle is the line-at-a-time edge list reader the block
// engine replaced, kept as the reference it must agree with: the same n,
// the same edges bit for bit and the same error text on any input.
func readEdgeListOracle(r io.Reader) (n int, edges []Edge, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	maxID := int32(-1)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return 0, nil, fmt.Errorf("graph: line %d: want 'u v [w]', got %q", line, text)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return 0, nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return 0, nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		if u < 0 || v < 0 {
			return 0, nil, fmt.Errorf("graph: line %d: negative vertex id", line)
		}
		w := 1.0
		if len(fields) >= 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return 0, nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
		}
		edges = append(edges, Edge{U: int32(u), V: int32(v), W: w})
		if int32(u) > maxID {
			maxID = int32(u)
		}
		if int32(v) > maxID {
			maxID = int32(v)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	return int(maxID + 1), edges, nil
}

// matchOracle fails t unless ReadEdgeList and the oracle agree on input.
func matchOracle(t *testing.T, input string) {
	t.Helper()
	n, edges, err := ReadEdgeList(strings.NewReader(input))
	wantN, wantEdges, wantErr := readEdgeListOracle(strings.NewReader(input))
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("error %v, oracle %v", err, wantErr)
	}
	if n != wantN || len(edges) != len(wantEdges) {
		t.Fatalf("n=%d with %d edges, oracle n=%d with %d", n, len(edges), wantN, len(wantEdges))
	}
	for i, e := range edges {
		o := wantEdges[i]
		if e.U != o.U || e.V != o.V || math.Float64bits(e.W) != math.Float64bits(o.W) {
			t.Fatalf("edge %d = %+v, oracle %+v", i, e, o)
		}
	}
}

func FuzzReadEdgeListMatchesOracle(f *testing.F) {
	long := strings.Repeat("7", maxLine)
	for _, seed := range []string{
		"0 1\r\n1 2 0.5\r\n",
		"0 1\n1 2",
		"0\t1\t2.5\n\t3 4 \t\n",
		"+5 1\n",
		"1 +5 -2\n",
		"0 1\n",
		"0 1 \n",
		"0\u00851\n",
		"0 1 2\u0085\n",
		"0\u00a01 2\n",
		"\u00a00 1\u00a0\n",
		"0 1 2\u00a0x\n",
		"2147483647 0\n",
		"2147483646 0\n",
		"2147483648 0\n",
		"18446744073709551617 0\n", // 2^64+1: wraps to 1 in 64 bits
		"0 1 1e400\n0 1 NaN\n1 2 -Inf\n1 2 0x1p-3\n",
		"# comment\n% comment\n\n   \n0 1\n",
		"0 1 2 3\n",
		"0 1 2.5x\n",
		"0 x\n",
		"007 008\n",
		"5\n",
		"5 \n",
		"0 1\n" + long + "\n0 1\n",
		long[1:] + "\n0 1\n",
		"0 1\n" + long,
		"0 1\n" + long[1:],
	} {
		f.Add(seed)
	}
	f.Fuzz(matchOracle)
}

// TestReadEdgeListMultiBlockMatchesOracle runs an input several read
// blocks long, whose lines of every kind fall across block boundaries.
func TestReadEdgeListMultiBlockMatchesOracle(t *testing.T) {
	kinds := []string{"%d %d\n", "%d\t%d 0.%d\r\n", "  %d %d %de-3 \n", "# %d %d %d\n", "%d %d %d\n", "\n"}
	var sb strings.Builder
	for i := 0; sb.Len() < 7*maxLine; i++ {
		format := kinds[i%len(kinds)]
		args := []any{i % 100003, (i * 7919) % 100019, i % 97}
		fmt.Fprintf(&sb, format, args[:strings.Count(format, "%")]...)
	}
	input := sb.String()
	matchOracle(t, input)
	matchOracle(t, input+"1 zzz\n")
	matchOracle(t, input+strings.Repeat(" ", 2*maxLine+1)+"\n0 1\n") // longer than a block
}
