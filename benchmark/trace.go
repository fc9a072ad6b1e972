package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the harness side of the boundary. Spans of one op share Op; Parent is
// the index of the enclosing span (-1 for an op's root).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start"`
	EndNs   int64  `json:"end"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. begin and end are
// no-ops on a nil tracer, so op code is written once and the untraced runs
// pay a nil check per boundary.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	// Capacity for a whole traced window up front: growing the slice
	// mid-window would bill a multi-megabyte copy to whichever op hit it.
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<17)}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartNs: int64(time.Since(t.epoch)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].EndNs = int64(time.Since(t.epoch))
}

// perOpMs sums, per op, the durations of spans with the given name.
func (t *tracer) perOpMs(name string) map[int]float64 {
	sums := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			sums[s.Op] += float64(s.EndNs-s.StartNs) / 1e6
		}
	}
	return sums
}

// eachMs returns the duration of every span with the given name.
func (t *tracer) eachMs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// countPerOp returns the mean number of spans with the given name per op
// that has at least one.
func (t *tracer) countPerOp(name string) float64 {
	ops := map[int]int{}
	for _, s := range t.spans {
		if s.Name == name {
			ops[s.Op]++
		}
	}
	if len(ops) == 0 {
		return 0
	}
	total := 0
	for _, c := range ops {
		total += c
	}
	return float64(total) / float64(len(ops))
}

// write dumps the spans to dir/trace_<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), b, 0o644)
}
