package exp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/workspace"
)

// ScalingEntry is one worker-count point of a scaling sweep: the fastest
// wall time over the reps, its per-phase split, the speedups relative to
// the single-worker point, and a checksum of the produced coordinates.
type ScalingEntry struct {
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"` // minimum over Reps runs
	// Speedup is t(1 worker) / t(Workers); Efficiency is Speedup/Workers
	// (the parallel efficiency the paper's Figure 4 curves chart).
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
	// Phases is the per-phase seconds of the fastest run; PhaseSpeedup is
	// each phase's speedup against the 1-worker entry (Table 5 style).
	Phases       map[string]float64 `json:"phases"`
	PhaseSpeedup map[string]float64 `json:"phaseSpeedup"`
	// Checksum is the SHA-256 of the output coordinates' raw bits. All
	// entries of one graph must agree — the layout is bitwise
	// deterministic across worker budgets by construction.
	Checksum string `json:"checksum"`
	// BFS direction split of the fastest run: how many levels the
	// traversal phase ran top-down vs bottom-up, and the adjacency
	// entries it actually examined — the per-point record of the
	// direction-optimizing engine's choices.
	BFSTopDownSteps  int   `json:"bfsTopDownSteps"`
	BFSBottomUpSteps int   `json:"bfsBottomUpSteps"`
	BFSScannedEdges  int64 `json:"bfsScannedEdges"`
}

// ScalingGraph is one graph's sweep.
type ScalingGraph struct {
	Graph    string `json:"graph"`
	Analogue string `json:"analogue"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
	// Deterministic reports whether every sweep point produced
	// bit-identical coordinates.
	Deterministic bool           `json:"deterministic"`
	Entries       []ScalingEntry `json:"entries"`
}

// ScalingReport is the machine-readable record of one scaling sweep,
// written as BENCH_SCALING_<date>.json. It is the repo's Figure 4 /
// Table 5 analogue: per-phase scaling curves over a worker-count sweep,
// with determinism checksums alongside the timings.
type ScalingReport struct {
	Date      string `json:"date"`
	GoVersion string `json:"goVersion"`
	NumCPU    int    `json:"numCPU"`
	Factor    int    `json:"factor"`
	Reps      int    `json:"reps"`
	Subspace  int    `json:"subspace"`
	// Deterministic is the conjunction over all graphs; hdebench -scaling
	// exits nonzero when it is false.
	Deterministic bool           `json:"deterministic"`
	Graphs        []ScalingGraph `json:"graphs"`
}

// scalingGraphs picks the sweep inputs: the skewed kron analogue (the
// graph the paper's headline scaling numbers use) and the high-diameter
// road analogue, the two traversal extremes.
func scalingGraphs(factor int) []NamedGraph {
	var out []NamedGraph
	for _, ng := range LargeCollection(factor) {
		if ng.Name == "kron" || ng.Name == "road" {
			out = append(out, ng)
		}
	}
	return out
}

// Scaling sweeps the worker budget over 1, 2, 4, … cfg.MaxThreads and
// lays out each scaling graph at every point: GOMAXPROCS and
// core.Options.Workers are both set to the point's worker count, one
// workspace is shared across the whole sweep (so the steady state is
// measured, and so any worker-count-dependent arena bug would surface as
// a checksum mismatch), and each point records the fastest of cfg.Reps
// runs plus a coordinates checksum.
func Scaling(cfg Config) (*ScalingReport, error) {
	cfg = cfg.withDefaults()
	rep := &ScalingReport{
		Date:          time.Now().Format("2006-01-02"),
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		Factor:        cfg.Factor,
		Reps:          cfg.Reps,
		Subspace:      cfg.Subspace,
		Deterministic: true,
	}
	sweep := threadSweep(cfg.MaxThreads)
	for _, ng := range scalingGraphs(cfg.Factor) {
		sg := ScalingGraph{
			Graph:         ng.Name,
			Analogue:      ng.Analogue,
			Vertices:      ng.G.NumV,
			Edges:         ng.G.NumEdges(),
			Deterministic: true,
		}
		// One workspace serves every sweep point: its reduction arenas are
		// sized by the problem shape only, so reuse across worker counts is
		// exactly the reuse a long-lived job worker sees.
		ws := workspace.New()
		var base *ScalingEntry
		for _, p := range sweep {
			opt := core.Options{
				Subspace:              cfg.Subspace,
				Seed:                  42,
				Workers:               p,
				Workspace:             ws,
				SkipConnectivityCheck: true,
			}
			var entry ScalingEntry
			var err error
			withThreads(p, func() { entry, err = scalePoint(ng, opt, cfg.Reps) })
			if err != nil {
				return nil, fmt.Errorf("scaling: %s at %d workers: %w", ng.Name, p, err)
			}
			if base == nil {
				b := entry
				base = &b
			}
			entry.Speedup = safeDiv(base.Seconds, entry.Seconds)
			entry.Efficiency = entry.Speedup / float64(p)
			entry.PhaseSpeedup = map[string]float64{}
			for name, sec := range entry.Phases {
				entry.PhaseSpeedup[name] = safeDiv(base.Phases[name], sec)
			}
			if entry.Checksum != base.Checksum {
				sg.Deterministic = false
				rep.Deterministic = false
			}
			sg.Entries = append(sg.Entries, entry)
		}
		rep.Graphs = append(rep.Graphs, sg)
	}
	return rep, nil
}

// scalePoint measures one (graph, worker count) sweep point.
func scalePoint(ng NamedGraph, opt core.Options, reps int) (ScalingEntry, error) {
	var best *core.Report
	var sum string
	for r := 0; r < reps; r++ {
		lay, res, err := core.ParHDE(ng.G, opt)
		if err != nil {
			return ScalingEntry{}, err
		}
		s := coordsChecksum(lay.Coords.Data)
		if sum == "" {
			sum = s
		} else if s != sum {
			return ScalingEntry{}, fmt.Errorf("nondeterministic repeat: %s then %s", sum, s)
		}
		if best == nil || res.Breakdown.Total < best.Breakdown.Total {
			best = res
		}
	}
	phases := map[string]float64{}
	for _, p := range best.Breakdown.Phases() {
		phases[p.Name] = p.D.Seconds()
	}
	bt := best.BFSTotals()
	return ScalingEntry{
		Workers:          best.Workers,
		Seconds:          best.Breakdown.Total.Seconds(),
		Phases:           phases,
		Checksum:         sum,
		BFSTopDownSteps:  bt.TopDownSteps,
		BFSBottomUpSteps: bt.BottomUpSteps,
		BFSScannedEdges:  bt.ScannedEdges,
	}, nil
}

// coordsChecksum hashes the raw float64 bits of the coordinates, so any
// single-ulp divergence between worker budgets is caught.
func coordsChecksum(coords []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range coords {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// safeDiv returns a/b, or 0 when b is zero (a phase too fast to time).
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ScalingExperiment prints the sweep as a Figure 4-style table and, when
// cfg.OutDir is set, writes the JSON record alongside.
func ScalingExperiment(w io.Writer, cfg Config) error {
	rep, err := Scaling(cfg)
	if err != nil {
		return err
	}
	fprintf(w, "Scaling: worker sweep %v (NumCPU=%d), fastest of %d reps\n",
		threadSweep(cfg.withDefaults().MaxThreads), rep.NumCPU, rep.Reps)
	fprintf(w, "%-10s %7s %10s %8s %6s %8s %8s %8s  %s\n",
		"graph", "workers", "seconds", "speedup", "eff", "bfs", "gemm", "dortho", "deterministic")
	for _, sg := range rep.Graphs {
		for _, e := range sg.Entries {
			fprintf(w, "%-10s %7d %10.4f %7.2fx %5.2f %7.2fx %7.2fx %7.2fx  %v\n",
				sg.Graph, e.Workers, e.Seconds, e.Speedup, e.Efficiency,
				e.PhaseSpeedup["bfs_traversal"],
				e.PhaseSpeedup["gemm"], e.PhaseSpeedup["dortho"], sg.Deterministic)
		}
	}
	if !rep.Deterministic {
		return fmt.Errorf("scaling: coordinates differ across worker budgets — determinism regression")
	}
	if cfg.OutDir != "" {
		path, err := WriteScalingJSON(cfg.OutDir, rep)
		if err != nil {
			return err
		}
		fprintf(w, "wrote %s\n", path)
	}
	return nil
}

// WriteScalingJSON writes rep to dir/BENCH_SCALING_<date>.json atomically
// and returns the path.
func WriteScalingJSON(dir string, rep *ScalingReport) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_SCALING_"+rep.Date+".json")
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	return path, nil
}
