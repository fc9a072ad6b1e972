package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dyngraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/quality"
)

// The incremental experiment quantifies the dynamic-graph extension: how
// much cheaper is a warm layout — the exact update of the previous cold
// layout's subspace — than a cold ParHDE run after a small edge delta,
// and how far does it land from the cold answer (the largest principal
// angle between the two drawings' spans, sampled stress, neighborhood
// preservation)?

// IncrementalEntry is one delta-fraction row of the incremental
// experiment.
type IncrementalEntry struct {
	DeltaEdges    int64
	DeltaFraction float64
	ColdSeconds   float64
	WarmSeconds   float64
	Speedup       float64
	// MaxAngle is the largest D-principal angle (radians) between the
	// warm layout's span and the cold layout's of the mutated graph.
	MaxAngle   float64
	ColdStress float64
	WarmStress float64
	ColdNbhd   float64
	WarmNbhd   float64
	// WarmReport is the last warm run's report.
	WarmReport *core.Report
}

// IncrementalReport is the result of one cold-vs-warm comparison.
type IncrementalReport struct {
	Subspace int
	Vertices int
	Edges    int64
	Entries  []IncrementalEntry
}

// flipEdges applies `count` deterministic edge flips to base as one
// mutation batch: mostly inserts of random non-edges, with every eighth
// flip deleting an existing edge, mimicking an evolving graph. A deletion
// keeps the graph connected: it needs a common neighbour of its endpoints
// whose two edges the batch then never deletes; a deletion without one
// becomes an addition. Returns the mutated graph and the number of flips
// applied.
func flipEdges(base *graph.CSR, count int64, seed uint64) (*graph.CSR, int64, error) {
	// Existing edges (u < v) to draw deletions from.
	edges := make([][2]int32, 0, base.NumEdges())
	for u := int32(0); int(u) < base.NumV; u++ {
		for _, v := range base.Neighbors(u) {
			if v > u {
				edges = append(edges, [2]int32{u, v})
			}
		}
	}
	n := int32(base.NumV)
	h := seed
	next := func() uint64 {
		h += 0x9e3779b97f4a7c15
		z := h
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	pair := func(u, v int32) [2]int32 { return [2]int32{min(u, v), max(u, v)} }
	var batch []dyngraph.Mutation
	seen := map[[2]int32]bool{} // flipped pairs
	kept := map[[2]int32]bool{} // edges a deletion relies on
	detour := func(e [2]int32) (int32, bool) {
		for _, w := range base.Neighbors(e[0]) {
			if w != e[1] && base.HasEdge(w, e[1]) && !seen[pair(e[0], w)] && !seen[pair(w, e[1])] {
				return w, true
			}
		}
		return 0, false
	}
	var applied int64
	for applied < count {
		if applied%8 == 7 && len(edges) > 0 {
			e := edges[next()%uint64(len(edges))]
			if seen[e] || kept[e] {
				continue
			}
			if w, ok := detour(e); ok {
				seen[e] = true
				kept[pair(e[0], w)], kept[pair(w, e[1])] = true, true
				batch = append(batch, dyngraph.Mutation{Op: dyngraph.DelEdge, U: e[0], V: e[1]})
				applied++
				continue
			}
			// No detour (always so on a triangle-free graph): this flip
			// is an addition instead.
		}
		u := int32(next() % uint64(n))
		v := int32(next() % uint64(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int32{u, v}] || base.HasEdge(u, v) {
			continue
		}
		seen[[2]int32{u, v}] = true
		batch = append(batch, dyngraph.Mutation{Op: dyngraph.AddEdge, U: u, V: v})
		applied++
	}
	mutated, _, err := dyngraph.Apply(base, batch)
	return mutated, applied, err
}

// RunIncremental executes the cold-vs-warm comparison
// (IncrementalExperiment prints it for the CLI).
func RunIncremental(cfg Config, fractions []float64) (*IncrementalReport, error) {
	cfg = cfg.withDefaults()
	base := gen.Kron(16, 8, 107)
	opt := core.Options{Subspace: cfg.Subspace, Seed: 1}
	warmOpt := opt
	warmOpt.Basis = core.NewBasis(base, opt)
	// A warm run on the basis graph itself builds the basis, outside the
	// timed loops.
	if _, _, err := core.ParHDE(base, warmOpt); err != nil {
		return nil, err
	}

	rep := &IncrementalReport{Subspace: cfg.Subspace, Vertices: base.NumV, Edges: base.NumEdges()}
	// Stress from 200 BFS sources: with 6, the warm/cold stress ratio at
	// a 1% delta swings 0.80–1.32 across sampling seeds, wider than the
	// 5% the acceptance test allows; with 200 it stays within 0.99–1.05.
	const stressSources, nbhdK, nbhdSample = 200, 6, 120
	for _, frac := range fractions {
		delta := int64(frac * float64(base.NumEdges()))
		if delta < 1 {
			delta = 1
		}
		mutated, applied, err := flipEdges(base, delta, 0xda1a+uint64(delta))
		if err != nil {
			return nil, err
		}

		var coldLay *core.Layout
		tCold := minTime(cfg.Reps, func() {
			var err2 error
			coldLay, _, err2 = core.ParHDE(mutated, opt)
			if err2 != nil {
				panic(err2)
			}
		})

		var warmLay *core.Layout
		var warmRep *core.Report
		tWarm := minTime(cfg.Reps, func() {
			var err2 error
			warmLay, warmRep, err2 = core.ParHDE(mutated, warmOpt)
			if err2 != nil {
				panic(err2)
			}
		})
		if !warmRep.Warm {
			return nil, fmt.Errorf("incremental: delta %d took the cold path", applied)
		}
		angles, err := quality.PrincipalAngles(warmLay.Coords, coldLay.Coords, mutated.WeightedDegrees())
		if err != nil {
			return nil, err
		}

		rep.Entries = append(rep.Entries, IncrementalEntry{
			DeltaEdges:    applied,
			DeltaFraction: frac,
			ColdSeconds:   seconds(tCold),
			WarmSeconds:   seconds(tWarm),
			Speedup:       ratio(tCold, tWarm),
			MaxAngle:      angles[len(angles)-1],
			ColdStress:    quality.SampledStress(mutated, coldLay, stressSources, 9),
			WarmStress:    quality.SampledStress(mutated, warmLay, stressSources, 9),
			ColdNbhd:      quality.NeighborhoodPreservation(mutated, coldLay, nbhdK, nbhdSample, 9),
			WarmNbhd:      quality.NeighborhoodPreservation(mutated, warmLay, nbhdK, nbhdSample, 9),
			WarmReport:    warmRep,
		})
	}
	return rep, nil
}

// IncrementalExperiment is `hdebench -exp incremental`: cold relayout vs
// the warm update of the previous layout's subspace on the kron analogue
// across edge-delta sizes, with quality deltas.
func IncrementalExperiment(w io.Writer, cfg Config) error {
	rep, err := RunIncremental(cfg, []float64{0.001, 0.005, 0.01})
	if err != nil {
		return err
	}
	fprintf(w, "Incremental warm update vs cold relayout (kron analogue, n=%d m=%d, s=%d)\n",
		rep.Vertices, rep.Edges, rep.Subspace)
	fprintf(w, "%8s %8s %10s %10s %8s %9s %11s %11s %10s %10s\n",
		"delta", "frac", "cold (s)", "warm (s)", "speedup", "angle",
		"stress cold", "stress warm", "nbhd cold", "nbhd warm")
	for _, e := range rep.Entries {
		fprintf(w, "%8d %7.2f%% %10.4f %10.4f %7.1fx %9.4f %11.4f %11.4f %10.3f %10.3f\n",
			e.DeltaEdges, 100*e.DeltaFraction, e.ColdSeconds, e.WarmSeconds,
			e.Speedup, e.MaxAngle, e.ColdStress, e.WarmStress, e.ColdNbhd, e.WarmNbhd)
	}
	return nil
}
