package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestLowerTailRank(t *testing.T) {
	for _, c := range []struct{ n, minBelow, rank int }{
		{1000, 15, 50}, // plain p05
		{300, 15, 15},  // p05 rank is exactly the 15-sample floor
		{100, 15, 15},  // p05 would be rank 5: raised until 15 samples sit below
		{20, 15, 10},   // 15 is past the median: capped there
		{100, 3, 5},    // a segment's share of the 15 is smaller
		{40, 3, 3},
		{5, 3, 3},
		{1, 15, 1},
	} {
		if got := lowerTailRank(c.n, c.minBelow); got != c.rank {
			t.Errorf("lowerTailRank(%d, %d) = %d, want %d", c.n, c.minBelow, got, c.rank)
		}
	}
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(400 - i) // 400..1, unsorted on purpose
	}
	if got := lowerTail(xs, tailMinBelow); got != 20 {
		t.Errorf("lowerTail of 1..400 = %g, want the 20th smallest", got)
	}
	if got := lowerTail(nil, tailMinBelow); got != 0 {
		t.Errorf("lowerTail(nil) = %g", got)
	}
}

func TestSummarizeFlagsDriftAndBimodality(t *testing.T) {
	// Seven segments on inputs of different cost, two of them in a burst:
	// the gated p05 is the second cheapest segment's, and neither
	// self-check minds the differences.
	var flat [][]float64
	for _, base := range []float64{10.4, 30, 10.2, 9.9, 10.1, 25, 10.3} {
		seg := make([]float64, 200)
		for i := range seg {
			seg[i] = base + float64(i%7)*0.01
		}
		flat = append(flat, seg)
	}
	st := summarize(flat, 14)
	if st.Ops != 1400 || st.P05 != 10.1 || math.Abs(st.DriftRatio-1) > 0.01 || st.P25OverP05 > 1.01 || st.OpsPerSec != 100 {
		t.Errorf("flat sample: %+v", st)
	}
	drifting := make([]float64, 600)
	for i := range drifting {
		drifting[i] = 10 * (1 + float64(i)/600)
	}
	if st := summarize([][]float64{drifting}, 6); st.DriftRatio < 1.5 {
		t.Errorf("drifting sample: drift ratio %g", st.DriftRatio)
	}
	// One op in ten is cheap, the rest cost eight times as much: PR 11's
	// serve_reads mix.
	bimodal := make([]float64, 600)
	for i := range bimodal {
		bimodal[i] = 80
		if i%10 == 0 {
			bimodal[i] = 10
		}
	}
	if st := summarize([][]float64{bimodal}, 6); st.P25OverP05 < 2 {
		t.Errorf("bimodal sample: p25/p05 %g", st.P25OverP05)
	}
}

func TestExclusiveQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	var xs []float64
	for i := 10; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	q1, q2, q3 := exclusiveQuartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %g %g %g", q1, q2, q3)
	}
	sp := spreadOf(xs)
	if math.Abs(sp.IQROverMedian-1) > 1e-12 || math.Abs(sp.MaxRelDev-4.5/5.5) > 1e-12 {
		t.Errorf("spread %+v", sp)
	}
}

func TestMeasureCountsFailedOps(t *testing.T) {
	boom := errors.New("check failed")
	a := &arm{name: "gated"}
	calls := 0
	op := func(i int) (time.Duration, error) {
		calls++
		if i >= 0 && i%3 == 2 {
			return time.Millisecond, boom
		}
		return time.Millisecond, nil
	}
	var tot totals
	measure([]*arm{a}, []opFunc{op}, 2, 9, 0, &tot)
	if calls != 11 || a.ops() != 9 || len(a.segments) != 1 || a.failed != 3 || !errors.Is(a.first, boom) || tot.next != 9 {
		t.Errorf("calls %d, ops %d, failed %d, first %v, next %d", calls, a.ops(), a.failed, a.first, tot.next)
	}
}

// smokeBatch sets a batch workload up on its smoke input.
func smokeBatch(t *testing.T, name string) *batchState {
	t.Helper()
	sp := specByName(name)
	input := filepath.Join(t.TempDir(), "input.edges")
	if err := writeInput(input, sp.generate(1, true)); err != nil {
		t.Fatal(err)
	}
	st, err := setupBatch(sp, input, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.ref, err = st.reference(true); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestLayoutChecksTripOnCorruption(t *testing.T) {
	st := smokeBatch(t, "road_k10")
	op := st.runOp(1, false)
	if _, err := op(0); err != nil {
		t.Fatalf("clean op: %v", err)
	}
	if err := st.checkHall(); err != nil {
		t.Fatalf("clean layout: %v", err)
	}
	l, err := st.staged(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.check(l); err != nil {
		t.Fatalf("staged replay differs from the pipeline: %v", err)
	}

	// One flipped low bit is invisible to any quality measure: only the
	// checksum sees it.
	x := &l.Coords.Data[7]
	*x = math.Float64frombits(math.Float64bits(*x) ^ 1)
	if err := st.check(l); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("flipped bit: %v", err)
	}
	*x = math.NaN()
	if err := st.check(l); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("NaN coordinate: %v", err)
	}
	// A layout that is finite but wrong: shear one axis onto the other.
	xs, ys := l.Coords.Col(0), l.Coords.Col(1)
	for i := range xs {
		xs[i] = ys[i] + float64(i%3)
	}
	if err := st.checkHall(); err == nil {
		t.Error("sheared layout passed the HallRatio check")
	}
}

// fakeFleet is a fleetState whose front is a handler that, like the real
// server, reports a job done before the new view is installed.
func fakeFleet(t *testing.T, pollsBeforeInstall int32) (*fleetState, *atomic.Int32) {
	t.Helper()
	var statsPolls atomic.Int32
	etag := func(gen int, kind string) string { return fmt.Sprintf(`"g:g0:%d:1:%s"`, gen, kind) }
	gen := func() int {
		if statsPolls.Load() > pollsBeforeInstall {
			return 2
		}
		return 1
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"id":%q,"state":"done","created":"2026-01-01T00:00:00Z"}`, r.PathValue("id"))
	})
	mux.HandleFunc("GET /graphs/g0/stats", func(w http.ResponseWriter, r *http.Request) {
		statsPolls.Add(1)
		w.Header().Set("ETag", etag(gen(), "stats"))
		io.WriteString(w, "{}")
	})
	mux.HandleFunc("GET /graphs/g0/layout.png", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", etag(gen(), "global.png"))
		io.WriteString(w, "not a png")
	})
	front := httptest.NewServer(mux)
	t.Cleanup(front.Close)
	st := &fleetState{front: front, hc: front.Client(), names: [2]string{"g0", "g1"}, samples: map[string][]float64{}}
	return st, &statsPolls
}

func TestAwaitInstallOutwaitsDoneBeforeInstall(t *testing.T) {
	st, polls := fakeFleet(t, 3)
	st.viewGen[0] = 1
	st.pngETag[0] = `"g:g0:1:1:global.png"`

	// The stale picture is still being served when the job reads done: the
	// render check must refuse it…
	if _, err := st.fullRender(nil, -1, 0, 0); err == nil || !strings.Contains(err.Error(), "unchanged") {
		t.Fatalf("stale render accepted: %v", err)
	}
	// …and settle must keep polling until the view generation moves.
	status, err := st.settle(nil, -1, 0, 0, "w1-j000001")
	if err != nil {
		t.Fatal(err)
	}
	if status.State != "done" || st.viewGen[0] != 2 || polls.Load() != 4 {
		t.Errorf("state %q, view generation %d after %d polls", status.State, st.viewGen[0], polls.Load())
	}
	// The new view's ETag is accepted; its body then fails the PNG check.
	if _, err := st.fullRender(nil, -1, 0, 0); err == nil || !strings.Contains(err.Error(), "PNG") {
		t.Errorf("render check: %v", err)
	}
}

func TestETagViewGen(t *testing.T) {
	for _, etag := range []string{`"g:web:7:12:global.png"`, `"g:web:7:12:zoom:5:2"`} {
		if gen, err := etagViewGen(etag); err != nil || gen != 7 {
			t.Errorf("etagViewGen(%s) = %d, %v", etag, gen, err)
		}
	}
	for _, bad := range []string{"", `"opaque"`, `"g:web:x:1:stats"`} {
		if _, err := etagViewGen(bad); err == nil {
			t.Errorf("etagViewGen(%q) accepted", bad)
		}
	}
}

// TestBenchmarkJSONMatchesHarness holds BENCHMARK.json to the harness's
// own tables: same workloads, same metric names, units and directions.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var doc struct {
		Workloads []row
		EndToEnd  []row `json:"end_to_end"`
		PerLayer  []row `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads, harness has %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %+v, harness has %s: %s", i, w, specs[i].name, specs[i].why)
		}
	}
	match := func(kind string, rows []row, defs []metricDef) {
		if len(rows) != len(defs) {
			t.Fatalf("%s: %d metrics, harness has %d", kind, len(rows), len(defs))
		}
		for i, r := range rows {
			d := defs[i]
			if r.Name != d.name || r.Unit != d.unit || r.Better != d.better || r.Bound > d.cap {
				t.Errorf("%s %d: %+v, harness has %+v", kind, i, r, d)
			}
		}
	}
	match("end_to_end", doc.EndToEnd, endToEndNames)
	match("per_layer", doc.PerLayer, perLayerNames)
	for _, r := range doc.EndToEnd {
		if r.Bound > doc.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", r.Name)
		}
	}
}

// TestSmoke runs every workload gated and traced on tiny inputs with all
// checks on: the harness end to end. It takes about two seconds on a quiet
// host; the time is logged, not asserted, because this host's bursts (and
// the race detector) stretch it tenfold.
func TestSmoke(t *testing.T) {
	start := time.Now()
	var log strings.Builder
	if err := runSmoke(&log, t.TempDir()); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	t.Logf("smoke took %v", time.Since(start))
}
