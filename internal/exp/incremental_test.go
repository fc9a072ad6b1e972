package exp

import (
	"bytes"
	"testing"
)

// TestIncrementalWarmStartAcceptance pins the dynamic-graph acceptance
// bar as work, not wall-clock time: after a ≤1% edge delta on the kron
// 2^16 analogue, the layout runs warm — no traversal at all, and exactly
// the applied flips found — while keeping sampled stress within 5% of a
// cold relayout.
func TestIncrementalWarmStartAcceptance(t *testing.T) {
	rep, err := RunIncremental(Config{Reps: 1}, []float64{0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(rep.Entries))
	}
	e := rep.Entries[0]
	if float64(e.DeltaEdges) > 0.01*float64(rep.Edges)+1 {
		t.Fatalf("delta %d exceeds 1%% of %d edges", e.DeltaEdges, rep.Edges)
	}
	wr := e.WarmReport
	if !wr.Warm || len(wr.BFSStats) != 0 || int64(wr.DeltaEdges) != e.DeltaEdges {
		t.Fatalf("warm report: warm=%v, %d BFS traversals, %d delta edges; want warm, 0 traversals, %d delta edges",
			wr.Warm, len(wr.BFSStats), wr.DeltaEdges, e.DeltaEdges)
	}
	if e.WarmStress > 1.05*e.ColdStress {
		t.Errorf("warm stress %.4f not within 5%% of cold %.4f", e.WarmStress, e.ColdStress)
	}
}

// TestIncrementalExperimentTable checks the hdebench wiring: the
// experiment renders one row per delta fraction.
func TestIncrementalExperimentTable(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("incremental", &buf, Config{Reps: 1}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("speedup")) {
		t.Fatalf("table missing header:\n%s", buf.String())
	}
	if rows := bytes.Count(buf.Bytes(), []byte("\n")) - 2; rows != 3 {
		t.Fatalf("table has %d rows, want 3:\n%s", rows, buf.String())
	}
}
