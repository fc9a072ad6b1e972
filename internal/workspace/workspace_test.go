package workspace

import (
	"testing"
)

func TestReshapeGrowsAndRetains(t *testing.T) {
	ws := New()
	ws.Reshape(100, 4, 2)
	if len(ws.P) != 400 || ws.B != nil {
		t.Fatalf("after Reshape(100,4,2): P len %d, B %v", len(ws.P), ws.B)
	}
	if got := len(ws.Coords); got != 200 {
		t.Fatalf("coords len %d, want 200", got)
	}
	// Growing reallocates; shrinking must reslice the same backing array.
	ws.Reshape(500, 8, 2)
	big := &ws.P[0]
	ws.Reshape(50, 2, 2)
	if len(ws.P) != 100 {
		t.Fatalf("P len %d after shrink", len(ws.P))
	}
	if &ws.P[0] != big {
		t.Fatal("shrinking Reshape reallocated instead of reslicing")
	}
}

func TestDistViewAliasesB(t *testing.T) {
	ws := New()
	ws.Reshape(10, 3, 2)
	v := ws.DistView(10, 3)
	v.Col(2)[9] = 42
	if ws.B.At(9, 2) != 42 {
		t.Fatal("DistView does not alias the workspace distance matrix")
	}
	// A narrower view reuses B; a taller one reallocates it.
	if ws.DistView(10, 2); ws.B.At(9, 2) != 42 {
		t.Fatal("a narrower DistView reallocated B")
	}
	if ws.DistView(20, 3); ws.B.Rows != 20 {
		t.Fatalf("DistView(20, 3) left B %dx%d", ws.B.Rows, ws.B.Cols)
	}
}

// TestFitLeavesReplayBuffersAlone: Fit sizes what ParHDE reads and none of
// the staged replay's buffers; Reshape adds P on top.
func TestFitLeavesReplayBuffersAlone(t *testing.T) {
	ws := New()
	ws.Fit(100, 4, 2)
	if ws.P != nil || ws.B != nil || ws.SRM != nil {
		t.Fatalf("Fit sized a replay buffer: P %d, B %v, SRM %d", len(ws.P), ws.B, len(ws.SRM))
	}
	if len(ws.Coords) != 200 || len(ws.Z) != 16 || ws.Pivot == nil || ws.Ortho == nil || ws.Eigen == nil || ws.Pack == nil {
		t.Fatalf("Fit(100,4,2) left a ParHDE buffer unsized: coords %d, Z %d", len(ws.Coords), len(ws.Z))
	}
	ws.Reshape(100, 4, 2)
	if len(ws.P) != 400 {
		t.Fatalf("Reshape after Fit: P len %d, want 400", len(ws.P))
	}
}
