package exp

import (
	"bytes"
	"testing"
)

// TestIncrementalWarmStartAcceptance pins the dynamic-graph acceptance
// bar: after a ≤1% edge delta on the kron 2^16 analogue, the warm-start
// refinement must be at least 5× faster than a cold relayout while
// keeping sampled stress within 5% of the cold result.
func TestIncrementalWarmStartAcceptance(t *testing.T) {
	rep, err := RunIncremental(Config{Reps: 3}, []float64{0.01})
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
	if e.RefineSweeps < 2 {
		t.Fatalf("refine sweeps = %d, want ≥ 2", e.RefineSweeps)
	}
	if e.Speedup < 5 {
		t.Errorf("warm speedup %.1fx (cold %.4fs, warm %.4fs), want ≥ 5x",
			e.Speedup, e.ColdSeconds, e.WarmSeconds)
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
