package exp

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestRegistryNamesAndDescribe pins the registry to the paper: seven
// tables, eight figures, the §4.4 / §4.5.3 experiments and the two
// engineering ablations the docs cite. Adding an id means editing this
// list, DESIGN.md's experiment index and EXPERIMENTS.md
// (TestExperimentIndexMatchesRegistry).
func TestRegistryNamesAndDescribe(t *testing.T) {
	want := []string{"alphabeta",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"incremental", "perm", "refine", "reorder", "sssp",
		"table1", "table2", "table3", "table4", "table5", "table6", "table7"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry ids (sorted)\n got %v\nwant %v", got, want)
	}
	for _, id := range want {
		if desc, ok := Describe(id); !ok || desc == "" {
			t.Fatalf("experiment %q has no description", id)
		}
	}
	if _, ok := Describe("nope"); ok {
		t.Fatal("unknown experiment described")
	}
	if err := Run("nope", &bytes.Buffer{}, Config{}); err == nil {
		t.Fatal("unknown experiment ran")
	}
}

// TestExperimentIndexMatchesRegistry holds the three documents that name
// experiment ids to the registry, in both directions: an `-exp <id>` that
// hdebench would reject fails, and an id without a row in DESIGN.md's
// experiment index or a heading / bullet in EXPERIMENTS.md fails.
func TestExperimentIndexMatchesRegistry(t *testing.T) {
	read := func(name string) string {
		raw, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	ref := regexp.MustCompile(`-exp ([a-z0-9]+)`)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		for _, m := range ref.FindAllStringSubmatch(read(doc), -1) {
			if _, ok := Describe(m[1]); !ok && m[1] != "all" {
				t.Errorf("%s names `-exp %s`, which is not a registry id", doc, m[1])
			}
		}
	}

	// idsOn collects the ids named on the lines of body that keep returns
	// true for.
	idsOn := func(body string, keep func(line string) bool) map[string]bool {
		out := map[string]bool{}
		for _, line := range strings.Split(body, "\n") {
			if keep(line) {
				for _, m := range ref.FindAllStringSubmatch(line, -1) {
					out[m[1]] = true
				}
			}
		}
		return out
	}
	_, index, found := strings.Cut(read("DESIGN.md"), "## Experiment index")
	if !found {
		t.Fatal("DESIGN.md has no \"## Experiment index\" section")
	}
	index, _, _ = strings.Cut(index, "\n## ")
	indexed := idsOn(index, func(l string) bool { return strings.HasPrefix(l, "|") })
	measured := idsOn(read("EXPERIMENTS.md"), func(l string) bool {
		return strings.HasPrefix(l, "#") || strings.HasPrefix(l, "- ")
	})
	for _, id := range Names() {
		if !indexed[id] {
			t.Errorf("DESIGN.md's experiment index has no row for `hdebench -exp %s`", id)
		}
		if !measured[id] {
			t.Errorf("EXPERIMENTS.md has no heading or bullet for `-exp %s`", id)
		}
	}
}

func TestTable2Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table2", &buf, Config{Factor: 1, Reps: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"urand", "kron", "web", "twitter", "road",
		"cage", "curlcurl", "kkt", "ecology", "pa2010"} {
		if !strings.Contains(out, name) {
			t.Fatalf("table2 missing graph %q:\n%s", name, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines < 12 {
		t.Fatalf("table2 only %d lines", lines)
	}
}

func TestFig8ZoomExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig8", &buf, Config{Factor: 1, Reps: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "10-hop zoom") {
		t.Fatalf("fig8 output: %s", buf.String())
	}
}

func TestCollectionsConnectedAndOrdered(t *testing.T) {
	large := LargeCollection(1)
	small := SmallCollection(1)
	if len(large) != 5 || len(small) != 5 {
		t.Fatalf("collections %d/%d", len(large), len(small))
	}
	all := Collection(1)
	if len(all) != 10 {
		t.Fatalf("collection size %d", len(all))
	}
	for _, ng := range all {
		if ng.G.NumV < 100 {
			t.Fatalf("%s suspiciously small: %d", ng.Name, ng.G.NumV)
		}
		if ng.Describe() == "" {
			t.Fatal("empty describe")
		}
	}
	// Rough Table 2 ordering: urand/kron the largest by edges.
	if all[0].G.NumEdges() < all[9].G.NumEdges() {
		t.Fatal("collection not roughly ordered by size")
	}
}

func TestScaledAndThreadSweep(t *testing.T) {
	if scaled(100, 1) != 100 || scaled(100, 4) != 200 || scaled(100, 9) != 300 {
		t.Fatalf("scaled wrong: %d %d %d", scaled(100, 1), scaled(100, 4), scaled(100, 9))
	}
	sw := threadSweep(8)
	want := []int{1, 2, 4, 8}
	if len(sw) != len(want) {
		t.Fatalf("sweep %v", sw)
	}
	for i := range want {
		if sw[i] != want[i] {
			t.Fatalf("sweep %v", sw)
		}
	}
	sw = threadSweep(1)
	if len(sw) != 1 || sw[0] != 1 {
		t.Fatalf("sweep(1) = %v", sw)
	}
	sw = threadSweep(6)
	if sw[len(sw)-1] != 6 {
		t.Fatalf("sweep(6) = %v", sw)
	}
}

func TestRatioAndMinTime(t *testing.T) {
	if ratio(time.Second, 0) != 0 {
		t.Fatal("ratio div-by-zero not guarded")
	}
	if r := ratio(2*time.Second, time.Second); r != 2 {
		t.Fatalf("ratio = %g", r)
	}
	calls := 0
	minTime(3, func() { calls++ })
	if calls != 3 {
		t.Fatalf("minTime ran %d times", calls)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Factor != 1 || c.Reps != 3 || c.Subspace != 10 || c.MaxThreads < 1 {
		t.Fatalf("defaults %+v", c)
	}
}

func TestCheapExperimentsSmoke(t *testing.T) {
	// Fast experiments run end-to-end in the test suite; the heavier ones
	// are exercised by cmd/hdebench and the CLI integration tests. table6
	// runs the Random pivot rounds and sssp the Δ-stepping rounds, both of
	// which fan out through parallel.ForBlockIndexed.
	for _, id := range []string{"table2", "fig2", "alphabeta", "table6", "sssp"} {
		var buf bytes.Buffer
		if err := Run(id, &buf, Config{Factor: 1, Reps: 1}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

// TestRefineSeedCutsIterations asserts the refine experiment's claim as
// work, not wall-clock time: on a smoke-size plate mesh, LOBPCG seeded
// with the ParHDE layout reaches the tolerance in at most two thirds of
// the iterations a cold start needs (measured 54 vs 108).
func TestRefineSeedCutsIterations(t *testing.T) {
	seeded, cold, err := seededVsCold(gen.PlateWithHoles(25, 25))
	if err != nil {
		t.Fatal(err)
	}
	if seeded.Residual > refineTol || cold.Residual > refineTol {
		t.Fatalf("residuals %.2e seeded, %.2e cold; both must reach %.0e", seeded.Residual, cold.Residual, refineTol)
	}
	if 3*seeded.Iterations > 2*cold.Iterations {
		t.Fatalf("seeded LOBPCG took %d iterations, cold %d; want at most two thirds", seeded.Iterations, cold.Iterations)
	}
	t.Logf("iterations: seeded %d, cold %d", seeded.Iterations, cold.Iterations)
}

// TestFig4ChecksumAcrossWorkerBudgets runs the core-count sweep at two
// points and checks its determinism gate from both sides: the real
// pipeline prints one checksum per graph whatever the budget, and a
// layout function that flips one coordinate bit at two workers makes the
// experiment fail.
func TestFig4ChecksumAcrossWorkerBudgets(t *testing.T) {
	cfg := Config{Factor: 1, Reps: 1, MaxThreads: 2}
	var buf bytes.Buffer
	if err := Fig4(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	sums := map[string]map[string]int{} // graph → checksum → rows
	for _, line := range strings.Split(buf.String(), "\n")[2:] {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if sums[f[0]] == nil {
			sums[f[0]] = map[string]int{}
		}
		sums[f[0]][f[len(f)-1]]++
	}
	if len(sums) != 5 {
		t.Fatalf("fig4 printed %d graphs, want the 5 large analogues:\n%s", len(sums), buf.String())
	}
	for name, bySum := range sums {
		if len(bySum) != 1 {
			t.Errorf("%s: %d distinct checksums across the sweep: %v", name, len(bySum), bySum)
		}
		for sum, rows := range bySum {
			if rows != 2 || len(sum) != 24 {
				t.Errorf("%s: checksum %q on %d rows, want 24 hex digits on the 1- and 2-worker rows", name, sum, rows)
			}
		}
	}

	perturbed := func(g *graph.CSR, opt core.Options) (*core.Layout, *core.Report, error) {
		lay, rep, err := core.ParHDE(g, opt)
		if err == nil && opt.Workers == 2 {
			d := lay.Coords.Data
			d[len(d)/2] = math.Float64frombits(math.Float64bits(d[len(d)/2]) ^ 1)
		}
		return lay, rep, err
	}
	err := fig4(&bytes.Buffer{}, cfg, perturbed)
	if err == nil || !strings.Contains(err.Error(), "at 2 workers") {
		t.Fatalf("fig4 with a one-bit coordinate change at 2 workers returned %v, want a determinism error", err)
	}
}
