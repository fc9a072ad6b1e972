// Command benchmark is the repository's performance ledger: five seeded
// workloads, four gated end-to-end metrics each, and a traced run that
// attributes the time to layers. README.md documents the metrics, the
// workloads and the noise evidence behind the choices; BENCHMARK.json at
// the repository root is the contract the driver holds it to.
//
//	go run ./benchmark -workload kron_k20 -seed 1 -seconds 18            # gated metrics
//	go run ./benchmark -workload kron_k20 -seed 1 -seconds 18 -trace 1   # per-layer metrics
//	go run ./benchmark -all                                               # every metric, one document
//	go run ./benchmark -calibrate 10                                      # spreads and bounds
//	go run ./benchmark -smoke                                             # tiny end-to-end self-test
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/graph"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a run's reported numbers by name.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the last line of a run's standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// sizing is how much work one run does around and inside its window.
type sizing struct {
	setups     int           // segments of a run, each with its own input and set-ups
	setupTries int           // timed from-scratch set-ups per segment; the last one's state is kept
	warmup     int           // unmeasured ops before the first segment's window
	minOps     int           // ops measured per arm even when the time is up
	window     time.Duration // measured window, summed over the segments
	stream     int           // elements per STREAM triad array (trace runs)
	session    sessionSteps
}

// sessionSteps are the read counts of one serve_session op, tuned so that
// no step exceeds half of the op.
type sessionSteps struct{ notModified, hits, zooms int }

func fullSizing(seconds float64) sizing {
	return sizing{
		setups: 7, setupTries: 3, warmup: 20, minOps: 30,
		window:  time.Duration(seconds * float64(time.Second)),
		stream:  4 << 20,
		session: sessionSteps{notModified: 100, hits: 20, zooms: 2},
	}
}

func smokeSizing() sizing {
	return sizing{
		setups: 2, setupTries: 2, warmup: 1, minOps: 5, stream: 1 << 16,
		session: sessionSteps{notModified: 6, hits: 3, zooms: 2},
	}
}

// segmentSeeds spaces the runs' seeds apart: segment k of the run with
// seed s draws its input from seed s·segmentSeeds + k.
const segmentSeeds = 16

// runConfig selects one run.
type runConfig struct {
	workload string
	seed     uint64
	trace    bool
	smoke    bool
	outDir   string
	sizing   sizing
}

// arm is one op variant of a run. A gated run has one arm; a trace run
// interleaves the untraced and the traced op one for one, so that host
// noise lands on both alike.
type arm struct {
	name     string
	segments [][]float64 // latencies in ms, per segment, in issue order
	failed   int
	first    error // first failure, for the diagnostics
}

// ops counts the arm's measured ops.
func (a *arm) ops() int {
	n := 0
	for _, seg := range a.segments {
		n += len(seg)
	}
	return n
}

// all returns the arm's latencies over all segments.
func (a *arm) all() []float64 {
	var out []float64
	for _, seg := range a.segments {
		out = append(out, seg...)
	}
	return out
}

// opFunc runs op i against the current state and returns its latency and
// the outcome of its checks.
type opFunc func(i int) (time.Duration, error)

// state is a workload after set-up. ops returns one opFunc per arm: the
// gated op and, on a trace run, its traced twin.
type state interface {
	ops(tr *tracer) []opFunc
	close()
}

// totals is what the segments of a run add up to.
type totals struct {
	elapsed    time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	next       int // index of the next op; op ids run on across segments
}

// measure runs one segment: warm-up ops, then the arms in turn until the
// segment's time has elapsed and every arm has minOps more ops (warm-up
// ops count down from -2; -1 is set-up's id). Ops are
// closed-loop: the next starts when the previous one has returned and
// been checked.
func measure(arms []*arm, ops []opFunc, warmup, minOps int, length time.Duration, t *totals) {
	for i := 0; i < warmup; i++ {
		for j, a := range arms {
			if _, err := ops[j](-2 - i); err != nil && a.first == nil {
				a.first = fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	lat := make([][]float64, len(arms))
	for j := range lat {
		lat[j] = make([]float64, 0, 1024)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for n := 0; time.Since(start) < length || n < minOps; n++ {
		for j, a := range arms {
			d, err := ops[j](t.next)
			lat[j] = append(lat[j], ms(d))
			if err != nil {
				a.failed++
				if a.first == nil {
					a.first = err
				}
			}
		}
		t.next++
	}
	t.elapsed += time.Since(start)
	runtime.ReadMemStats(&after)
	for j, a := range arms {
		a.segments = append(a.segments, lat[j])
	}
	t.allocBytes += after.TotalAlloc - before.TotalAlloc
	t.gcCycles += after.NumGC - before.NumGC
	t.gcPauseNs += after.PauseTotalNs - before.PauseTotalNs
}

// run executes one workload run and returns its result plus the gated
// arm's latency summary (reported beside, never inside, the result).
//
// A run is a chain of segments, each a complete from-scratch set-up
// followed by a share of the measured window on the state it built.
// Spreading the set-ups through the run, instead of timing them back to
// back, lets setup_s sample as many moments of the host's bursty
// interference as the latency does.
func run(cfg runConfig) (*result, loadgenStats, error) {
	var lg loadgenStats
	sp := specByName(cfg.workload)
	if sp == nil {
		return nil, lg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// A fixed value keeps every parallel.Budget snapshot and server default
	// the same on any machine the benchmark lands on (workloads.go says why
	// the serve workloads get one P and the batch workloads two).
	runtime.GOMAXPROCS(sp.procs)

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, lg, err
	}

	var tr *tracer
	segments, tries := cfg.sizing.setups, cfg.sizing.setupTries
	arms := []*arm{{name: "gated"}}
	if cfg.trace {
		tr = newTracer()
		segments, tries = 1, 1 // setup_s is a gated metric; the trace run needs one set-up's spans
		arms = append(arms, &arm{name: "traced"})
	}
	var st state
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	var setupSec []float64
	var t totals
	for k := 0; k < segments; k++ {
		if st != nil {
			st.close()
			st = nil
		}
		// Every segment draws its own input from the seed, and the input
		// reaches the program as a file. Seven instances per run keep one
		// unusually cheap or dear draw from deciding the run's numbers.
		segSeed := cfg.seed*segmentSeeds + uint64(k)
		input := filepath.Join(cfg.outDir, fmt.Sprintf("input_%s_%d_%d.edges", sp.name, segSeed, os.Getpid()))
		if err := writeInput(input, sp.generate(segSeed, cfg.smoke)); err != nil {
			return nil, lg, err
		}
		// Each segment sets up several times over and keeps the last state:
		// a set-up is a single 40–100 ms event, and setup_s, the fastest of
		// them all, needs more than seven draws to find a quiet moment.
		var err error
		for try := 0; try < tries; try++ {
			if st != nil {
				st.close()
				st = nil
			}
			var sec float64
			if st, sec, err = setUp(sp, input, segSeed, cfg, tr); err != nil {
				break
			}
			setupSec = append(setupSec, sec)
		}
		os.Remove(input)
		if err != nil {
			return nil, lg, fmt.Errorf("set-up of segment %d: %w", k, err)
		}
		if b, ok := st.(*batchState); ok {
			if b.ref, err = b.reference(cfg.smoke); err != nil {
				return nil, lg, err
			}
		}
		warmup := cfg.sizing.warmup
		if k > 0 {
			warmup = 2 // caches and connections only; the code paths are warm
		}
		measure(arms, st.ops(tr), warmup, (cfg.sizing.minOps+segments-1)/segments,
			cfg.sizing.window/time.Duration(segments), &t)
	}
	gated := arms[0]
	lg = summarize(gated.segments, t.elapsed.Seconds()/float64(len(arms)))

	res := &result{Metrics: metrics{}}
	var finalErr error
	if b, ok := st.(*batchState); ok {
		finalErr = b.checkHall()
	}
	for _, a := range arms {
		res.Attempted += a.ops()
		res.Failed += a.failed
		if a.first != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s/%s: %d of %d ops failed, first: %v\n",
				sp.name, a.name, a.failed, a.ops(), a.first)
		}
	}
	if finalErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, finalErr)
	}
	res.Correct = res.Failed == 0 && finalErr == nil

	if !cfg.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, lg, err
		}
		// setup_s is the fastest of the set-ups: interference only ever
		// adds time, so the minimum is the repeatable estimate.
		res.Metrics.set("setup_s", minOf(setupSec), "s")
		res.Metrics.set("latency_p05_ms", lg.P05, "ms")
		res.Metrics.set("alloc_kb_per_op", float64(t.allocBytes)/1024/float64(gated.ops()), "KB")
		res.Metrics.set("peak_rss_mb", rss, "MB")
		return res, lg, nil
	}

	// Per-layer metrics: every name of BENCHMARK.json's per_layer list is
	// present on every workload; a layer the workload does not run reads 0.
	out := res.Metrics
	for _, d := range perLayerNames {
		out.set(d.name, 0, d.unit)
	}
	set := out.set
	set("graph.read_ms", median(tr.eachMs("graph.read")), "ms")
	set("graph.lcc_ms", median(tr.eachMs("graph.lcc")), "ms")
	set("loadgen.latency_p50_ms", lg.P50, "ms")
	set("loadgen.latency_p90_ms", lg.P90, "ms")
	set("loadgen.throughput_ops_s", lg.OpsPerSec, "ops/s")
	set("loadgen.ops", float64(lg.Ops), "count")
	set("loadgen.drift_ratio", lg.DriftRatio, "ratio")
	set("loadgen.p25_over_p05", lg.P25OverP05, "ratio")
	set("runtime.gc_cycles", float64(t.gcCycles), "count")
	set("runtime.gc_pause_ms", float64(t.gcPauseNs)/1e6, "ms")
	if lg.P05 > 0 {
		set("trace.overhead_ratio", lowerTail(arms[1].all(), tailMinBelow)/lg.P05, "ratio")
	}
	switch s := st.(type) {
	case *batchState:
		// The two-worker op runs after the interleaved arms, not among
		// them: it would leave the caches it warmed on two cores to the
		// one-worker op that follows, and so slow the arm it is compared
		// with. It gets a fifth of the window on top.
		two := &arm{name: "workers2"}
		measure([]*arm{two}, []opFunc{s.runOp(2, false)}, 2, cfg.sizing.minOps, cfg.sizing.window/5, &totals{})
		res.Attempted += two.ops()
		res.Failed += two.failed
		res.Correct = res.Correct && two.failed == 0
		if p := lowerTail(two.all(), tailMinBelow); p > 0 {
			set("parallel.speedup_2w", lg.P05/p, "ratio")
		}
		s.layerMetrics(tr, out, streamGBps(cfg.sizing.stream))
	case *fleetState:
		s.layerMetrics(tr, out, arms[0].ops()+arms[1].ops())
	}
	if err := tr.write(cfg.outDir, sp.name); err != nil {
		return nil, lg, err
	}
	return res, lg, nil
}

// setUp does one timed from-scratch set-up. The collector is off for its
// length and forced right before it: the set-up's time and its memory peak
// then depend on what it allocates, not on when a concurrent cycle happens
// to start. Ops run with the collector as configured.
func setUp(sp *spec, input string, seed uint64, cfg runConfig, tr *tracer) (state, float64, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := time.Now()
	if sp.kind == batchKind {
		st, err := setupBatch(sp, input, seed, tr)
		if err != nil {
			return nil, 0, err // a nil *batchState must not become a non-nil state
		}
		return st, time.Since(t0).Seconds(), nil
	}
	st, err := setupFleet(sp, input, seed, cfg, tr)
	if err != nil {
		return nil, 0, err
	}
	return st, time.Since(t0).Seconds(), nil
}

// writeInput stores the generated graph as the edge list set-up reads.
func writeInput(path string, g *graph.CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed      = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 18, "length of the measured window")
		trace     = flag.Int("trace", 0, "1 = traced per-layer run, 0 = gated end-to-end run")
		all       = flag.Bool("all", false, "run every workload gated and traced; print one JSON document")
		calibrate = flag.Int("calibrate", 0, "run every workload N (>= 5) times; write CALIBRATION.json")
		smoke     = flag.Bool("smoke", false, "tiny graphs, 5 ops per workload, all checks (what go test runs)")
		outDir    = flag.String("out", filepath.Join("benchmark", "out"), "directory for inputs, fleet data and traces")
	)
	flag.Parse()

	var err error
	switch {
	case *smoke:
		err = runSmoke(os.Stdout, *outDir)
	case *calibrate > 0:
		err = runCalibrate(*calibrate, *seconds, *seed)
	case *all:
		err = runAll(*seconds, *seed)
	default:
		cfg := runConfig{
			workload: *workload, seed: *seed, trace: *trace != 0,
			outDir: *outDir, sizing: fullSizing(*seconds),
		}
		var res *result
		var lg loadgenStats
		if res, lg, err = run(cfg); err == nil {
			// The homogeneity numbers ride on their own line: the contract
			// reserves the last line for the result and its metric set.
			emit(os.Stdout, map[string]loadgenStats{"loadgen": lg})
			emit(os.Stdout, res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func emit(w *os.File, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // result types hold only numbers, strings and bools
	}
	fmt.Fprintln(w, string(b))
}
