package linalg

import (
	"math/rand"
	"testing"
)

// TestFusedRowsWalkCount: the SSE2 L·S walks each adjacency once per
// ⌈cols/28⌉ column chunks (once per 8-, 4- or 1-column chunk in Go), so
// s ≤ 28 is one walk and s = 64 three; a lone column is one. A weighted
// graph takes the Go walk: 8+8+4 at s = 20.
func TestFusedRowsWalkCount(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	g := oracleGraph(rng)
	n := g.NumV
	for cols, walks := range map[int]int64{1: 1, 2: 1, 10: 1, 20: 1, 28: 1, 29: 2, 56: 2, 57: 3, 64: 3} {
		srm, deg := randVec(n*cols, rng), randVec(n, rng)
		got := fusedRows(g, deg, srm, strided{make([]float64, n*cols), n, n}, 0, n, cols)
		if want := walks * int64(len(g.Adj)); got != want {
			t.Errorf("cols=%d: %d gathers, want %d (%d walks)", cols, got, want, walks)
		}
	}
	weighted := *g
	weighted.Weights = randVec(len(g.Adj), rng)
	srm, deg := randVec(n*20, rng), randVec(n, rng)
	got := fusedRows(&weighted, deg, srm, strided{make([]float64, n*20), n, n}, 0, n, 20)
	if want := 3 * int64(len(g.Adj)); got != want {
		t.Errorf("weighted cols=20: %d gathers, want %d (3 Go walks)", got, want)
	}
}
