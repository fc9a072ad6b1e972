package workspace

import (
	"testing"
)

func TestReshapeGrowsAndRetains(t *testing.T) {
	ws := New()
	ws.Reshape(100, 4, 2)
	if len(ws.Col) != 100 || ws.B.Rows != 100 || ws.B.Cols != 4 {
		t.Fatalf("after Reshape(100,4,2): col %d, B %dx%d", len(ws.Col), ws.B.Rows, ws.B.Cols)
	}
	if got := len(ws.Coords); got != 200 {
		t.Fatalf("coords len %d, want 200", got)
	}
	// Growing reallocates; shrinking must reslice the same backing array.
	ws.Reshape(500, 8, 2)
	big := &ws.Col[0]
	ws.Reshape(50, 2, 2)
	if len(ws.Col) != 50 {
		t.Fatalf("col len %d after shrink", len(ws.Col))
	}
	if &ws.Col[0] != big {
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
}
