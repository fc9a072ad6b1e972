package exp

import (
	"fmt"
	"io"
	"sort"
)

// Runner executes one experiment, writing its table/series to w.
type Runner func(w io.Writer, cfg Config) error

// registry maps experiment ids (as accepted by `hdebench -exp`) to
// runners. Ids follow the paper's table/figure numbering.
var registry = map[string]struct {
	Run  Runner
	Desc string
}{
	"table1":      {Table1, "empirical verification of Table 1 asymptotics (s- and n-sweeps)"},
	"table2":      {Table2, "graph collection sizes after preprocessing"},
	"table3":      {Table3, "ParHDE vs prior parallel implementation, s=10"},
	"table4":      {Table4, "ParHDE times and relative speedup, all graphs"},
	"table5":      {Table5, "PHDE and PivotMDS times and relative speedup"},
	"table6":      {Table6, "k-centers vs random pivots, BFS phase, 30 sources"},
	"table7":      {Table7, "MGS vs CGS D-orthogonalization"},
	"fig1":        {Fig1, "ParHDE vs full spectral drawing of the plate mesh"},
	"fig2":        {Fig2, "adjacency gap distributions (Fibonacci binning)"},
	"fig3":        {Fig3, "phase breakdown: parallel / 1-thread / prior"},
	"fig4":        {Fig4, "scaling of ParHDE and phases across cores, with cross-budget determinism check"},
	"fig5":        {Fig5, "s=50 breakdown; BFS and TripleProd internal splits"},
	"fig6":        {Fig6, "PivotMDS and PHDE breakdowns"},
	"fig7":        {Fig7, "random-pivot ParHDE / PHDE / PivotMDS drawings"},
	"fig8":        {Fig8, "zoomed 10-hop neighborhood drawing"},
	"sssp":        {SSSPExperiment, "weighted SSSP vs BFS phase (§4.4)"},
	"perm":        {PermExperiment, "random vertex permutation vs locality order (§4.4)"},
	"refine":      {RefineExperiment, "ParHDE-seeded vs cold LOBPCG to one residual tolerance (§4.5.3)"},
	"alphabeta":   {AlphaBetaExperiment, "direction-optimizing BFS switch-threshold sweep (§3.1)"},
	"reorder":     {ReorderExperiment, "RCM and Hilbert-from-layout locality recovery (§4.4)"},
	"incremental": {IncrementalExperiment, "exact warm update vs cold relayout after edge deltas (dynamic graphs)"},
}

// Names returns all experiment ids, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line description of an experiment id.
func Describe(name string) (string, bool) {
	e, ok := registry[name]
	if !ok {
		return "", false
	}
	return e.Desc, true
}

// Run executes the named experiment (or every experiment for "all").
func Run(name string, w io.Writer, cfg Config) error {
	if name == "all" {
		for _, id := range Names() {
			fprintf(w, "\n=== %s: %s ===\n", id, registry[id].Desc)
			if err := registry[id].Run(w, cfg); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		return nil
	}
	e, ok := registry[name]
	if !ok {
		return fmt.Errorf("exp: unknown experiment %q (have %v)", name, Names())
	}
	return e.Run(w, cfg)
}
