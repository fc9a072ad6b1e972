package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runSmoke runs every workload gated and traced on tiny inputs with all
// checks on, in process, and writes one summary line per run. It is the
// end-to-end self-test `go test ./benchmark` exercises.
func runSmoke(w io.Writer, outDir string) error {
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			res, _, err := run(runConfig{
				workload: sp.name, seed: 1, trace: trace, smoke: true,
				outDir: outDir, sizing: smokeSizing(),
			})
			if err != nil {
				return fmt.Errorf("%s (trace=%v): %w", sp.name, trace, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s (trace=%v): %d of %d ops failed their checks", sp.name, trace, res.Failed, res.Attempted)
			}
			want := endToEndNames
			if trace {
				want = perLayerNames
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					return fmt.Errorf("%s (trace=%v): metric %s missing or malformed: %+v", sp.name, trace, d.name, m)
				}
			}
			fmt.Fprintf(w, "smoke %-13s trace=%-5v ops=%d metrics=%d ok\n", sp.name, trace, res.Attempted, len(res.Metrics))
		}
	}
	return nil
}

// child runs one workload run in a process of its own — peak_rss_mb is a
// per-process high-water mark — and parses its two output lines.
func child(workload string, seed uint64, seconds float64, trace int) (*result, loadgenStats, error) {
	var lg loadgenStats
	exe, err := os.Executable()
	if err != nil {
		return nil, lg, err
	}
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, lg, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) < 2 {
		return nil, lg, fmt.Errorf("%s seed %d: expected two output lines, got %q", workload, seed, out)
	}
	var diag struct {
		Loadgen loadgenStats `json:"loadgen"`
	}
	res := &result{}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &diag); err != nil {
		return nil, lg, err
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
		return nil, lg, err
	}
	return res, diag.Loadgen, nil
}

// runAll prints every end-to-end and per-layer metric of every workload
// as one JSON document, and fails if any op failed its checks.
func runAll(seconds float64, seed uint64) error {
	type entry struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		EndToEnd  metrics `json:"end_to_end"`
		PerLayer  metrics `json:"per_layer"`
	}
	doc := struct {
		Seed      uint64            `json:"seed"`
		Seconds   float64           `json:"seconds"`
		Workloads map[string]*entry `json:"workloads"`
	}{seed, seconds, map[string]*entry{}}
	ok := true
	for _, sp := range specs {
		gated, _, err := child(sp.name, seed, seconds, 0)
		if err != nil {
			return err
		}
		traced, _, err := child(sp.name, seed, seconds, 1)
		if err != nil {
			return err
		}
		doc.Workloads[sp.name] = &entry{
			Correct:   gated.Correct && traced.Correct,
			Attempted: gated.Attempted + traced.Attempted,
			Failed:    gated.Failed + traced.Failed,
			EndToEnd:  gated.Metrics,
			PerLayer:  traced.Metrics,
		}
		ok = ok && gated.Correct && traced.Correct
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !ok {
		return fmt.Errorf("some ops failed their checks")
	}
	return nil
}

// Homogeneity limits -calibrate enforces on its quietest set.
const (
	driftLo, driftHi = 0.95, 1.05
	maxP25OverP05    = 1.25
)

// calibration is the committed evidence behind BENCHMARK.json's bounds.
type calibration struct {
	Sets    int      `json:"sets"`
	Seconds float64  `json:"seconds"`
	Seeds   []uint64 `json:"seeds"`
	// Spreads is workload → end-to-end metric → spread over the sets.
	Spreads map[string]map[string]spread `json:"spreads"`
	// Bounds is metric → max(0.03, 3 × the worst workload's
	// iqr_over_median), rounded up to a percent and capped; setup_s is then
	// raised to the largest of them. The quartile distance is the driver's
	// own spread and, unlike max_rel_dev, shrugs off the runs a host burst
	// swallows whole.
	Bounds map[string]float64 `json:"bounds"`
	// OverCap lists workload/metric pairs whose spread exceeds a third of
	// the metric's cap: those workloads need fixing, not a wider bound.
	OverCap []string `json:"over_cap"`
	// QuietestSet is the set with the lowest latencies relative to each
	// workload's median, and Homogeneity its self-check numbers.
	QuietestSet int                     `json:"quietest_set"`
	Homogeneity map[string]loadgenStats `json:"homogeneity"`
	// Trace holds one traced run per workload, taken after the sets.
	Trace map[string]metrics `json:"trace"`
}

// runCalibrate runs all workloads n times, alternating the order between
// sets and moving the seed, and writes benchmark/CALIBRATION.json. The
// file is rewritten after every set, so a late failure keeps the evidence
// gathered before it.
func runCalibrate(n int, seconds float64, seed uint64) error {
	if n < 5 {
		return fmt.Errorf("-calibrate needs at least 5 sets, got %d", n)
	}
	cal := calibration{Seconds: seconds, Trace: map[string]metrics{}}
	values := map[string]map[string][]float64{}
	loadgen := map[string][]loadgenStats{}
	for _, sp := range specs {
		values[sp.name] = map[string][]float64{}
	}
	for set := 0; set < n; set++ {
		for i := range specs {
			sp := specs[i]
			if set%2 == 1 {
				sp = specs[len(specs)-1-i]
			}
			res, lg, err := child(sp.name, seed+uint64(set), seconds, 0)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: %d of %d ops failed their checks", sp.name, seed+uint64(set), res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				values[sp.name][name] = append(values[sp.name][name], m.Value)
			}
			loadgen[sp.name] = append(loadgen[sp.name], lg)
			fmt.Fprintf(os.Stderr, "calibrate: set %d %s p05=%.3f ms\n", set, sp.name, lg.P05)
		}
		cal.Sets = set + 1
		cal.Seeds = append(cal.Seeds, seed+uint64(set))
		cal.summarize(values, loadgen)
		if err := cal.write(); err != nil {
			return err
		}
	}
	for _, sp := range specs {
		res, _, err := child(sp.name, seed, seconds, 1)
		if err != nil {
			return err
		}
		cal.Trace[sp.name] = res.Metrics
	}
	if err := cal.write(); err != nil {
		return err
	}

	fmt.Printf("bounds: %v\n", cal.Bounds)
	if len(cal.OverCap) > 0 {
		fmt.Printf("spread over a third of the cap (fix the workload, do not widen the bound): %v\n", cal.OverCap)
	}
	var inhomogeneous []string
	for _, sp := range specs {
		lg := cal.Homogeneity[sp.name]
		if lg.DriftRatio < driftLo || lg.DriftRatio > driftHi || lg.P25OverP05 > maxP25OverP05 {
			inhomogeneous = append(inhomogeneous,
				fmt.Sprintf("%s (drift %.3f, p25/p05 %.3f)", sp.name, lg.DriftRatio, lg.P25OverP05))
		}
	}
	if len(inhomogeneous) > 0 {
		return fmt.Errorf("inhomogeneous on the quietest set %d: %s", cal.QuietestSet, strings.Join(inhomogeneous, "; "))
	}
	return nil
}

// summarize derives spreads, bounds and the quietest set's homogeneity
// numbers from the sets gathered so far.
func (cal *calibration) summarize(values map[string]map[string][]float64, loadgen map[string][]loadgenStats) {
	cal.Spreads, cal.Bounds, cal.OverCap = map[string]map[string]spread{}, map[string]float64{}, nil
	for _, sp := range specs {
		cal.Spreads[sp.name] = map[string]spread{}
	}
	for _, d := range endToEndNames {
		worst := 0.0
		for _, sp := range specs {
			s := spreadOf(values[sp.name][d.name])
			cal.Spreads[sp.name][d.name] = s
			need := 3 * s.IQROverMedian
			worst = math.Max(worst, need)
			if need > d.cap {
				cal.OverCap = append(cal.OverCap, sp.name+"/"+d.name)
			}
		}
		cal.Bounds[d.name] = math.Min(d.cap, math.Max(0.03, math.Ceil(worst*100)/100))
	}
	for _, b := range cal.Bounds {
		cal.Bounds["setup_s"] = math.Max(cal.Bounds["setup_s"], b)
	}

	// The quietest set is where the code's own behaviour shows best.
	best := math.Inf(1)
	for set := 0; set < cal.Sets; set++ {
		score := 0.0
		for _, sp := range specs {
			score += values[sp.name]["latency_p05_ms"][set] / cal.Spreads[sp.name]["latency_p05_ms"].Median
		}
		if score < best {
			best, cal.QuietestSet = score, set
		}
	}
	cal.Homogeneity = map[string]loadgenStats{}
	for _, sp := range specs {
		cal.Homogeneity[sp.name] = loadgen[sp.name][cal.QuietestSet]
	}
}

func (cal *calibration) write() error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(cal); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("benchmark", "CALIBRATION.json"), buf.Bytes(), 0o644)
}
