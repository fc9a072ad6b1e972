package repro_bench

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles one of the cmd binaries into a shared temp dir, with
// any extra go build flags. The CLI integration tests exercise the tools
// end to end: generate → inspect → lay out → render, through real files.
func buildTool(t *testing.T, dir, name string, flags ...string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	args := append(append([]string{"build"}, flags...), "-o", bin, "./cmd/"+name)
	cmd := exec.Command("go", args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, buf.String())
	}
	return buf.String()
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test builds binaries")
	}
	dir := t.TempDir()
	gengraphBin := buildTool(t, dir, "gengraph")
	graphinfoBin := buildTool(t, dir, "graphinfo")
	parhdeBin := buildTool(t, dir, "parhde")

	// 1. Generate a plate mesh as an edge list and as binary CSR.
	edgesPath := filepath.Join(dir, "plate.txt")
	binPath := filepath.Join(dir, "plate.bin")
	out := runTool(t, gengraphBin, "-kind", "plate", "-rows", "60", "-cols", "60", "-o", edgesPath)
	if !strings.Contains(out, "plate:") {
		t.Fatalf("gengraph output: %s", out)
	}
	runTool(t, gengraphBin, "-kind", "plate", "-rows", "60", "-cols", "60", "-o", binPath, "-format", "bin")

	// 2. Inspect it.
	info := runTool(t, graphinfoBin, "-in", edgesPath, "-gaps")
	for _, want := range []string{"vertices (n):", "edges (m):", "mean gap:", "gap histogram"} {
		if !strings.Contains(info, want) {
			t.Fatalf("graphinfo missing %q:\n%s", want, info)
		}
	}

	// 3. Lay it out from the edge list, writing coords + PNG.
	coordsPath := filepath.Join(dir, "plate.xy")
	pngPath := filepath.Join(dir, "plate.png")
	layOut := runTool(t, parhdeBin,
		"-in", edgesPath, "-s", "20", "-coords", coordsPath, "-png", pngPath)
	if !strings.Contains(layOut, "quality: Hall ratio") {
		t.Fatalf("parhde output: %s", layOut)
	}
	// Coordinates: one line per vertex, three fields.
	coordData, err := os.ReadFile(coordsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(coordData)), "\n")
	if len(lines) < 1000 {
		t.Fatalf("only %d coordinate lines", len(lines))
	}
	if fields := strings.Fields(lines[0]); len(fields) != 3 {
		t.Fatalf("coordinate line %q", lines[0])
	}
	// PNG signature.
	pngData, err := os.ReadFile(pngPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(pngData) < 8 || string(pngData[1:4]) != "PNG" {
		t.Fatal("output not a PNG")
	}

	// 4. The binary CSR path and the other algorithms work too.
	for _, algo := range []string{"phde", "pivotmds", "prior"} {
		out := runTool(t, parhdeBin, "-in", binPath, "-format", "bin", "-algo", algo, "-s", "15", "-q")
		if strings.TrimSpace(out) != "" {
			t.Fatalf("%s -q produced output: %s", algo, out)
		}
	}

	// 5. Zoom mode.
	zoomPNG := filepath.Join(dir, "zoom.png")
	zoomOut := runTool(t, parhdeBin, "-in", edgesPath, "-zoom", "500", "-hops", "8", "-png", zoomPNG)
	if !strings.Contains(zoomOut, "zoom:") {
		t.Fatalf("zoom output: %s", zoomOut)
	}
	if _, err := os.Stat(zoomPNG); err != nil {
		t.Fatal(err)
	}

	// 6. Every documented -ortho / -pivots value runs.
	for _, args := range [][]string{{"-ortho", "mgs"}, {"-ortho", "cgs"}, {"-pivots", "kcenters"}, {"-pivots", "random"}} {
		runTool(t, parhdeBin, append([]string{"-in", binPath, "-format", "bin", "-s", "15", "-q"}, args...)...)
	}

	// 7. Error paths: bad algorithm, missing file, and unknown -ortho /
	// -pivots values, which must be rejected with the accepted set named
	// (mgs-l1 was a value once; it must not quietly run MGS).
	cmd := exec.Command(parhdeBin, "-in", edgesPath, "-algo", "nope")
	if err := cmd.Run(); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	cmd = exec.Command(parhdeBin, "-in", filepath.Join(dir, "missing.txt"))
	if err := cmd.Run(); err == nil {
		t.Fatal("missing input accepted")
	}
	for _, c := range []struct{ bin, flag, value, want string }{
		{parhdeBin, "-ortho", "mgs-l1", "want mgs or cgs"},
		{parhdeBin, "-ortho", "CGS", "want mgs or cgs"},
		{parhdeBin, "-pivots", "kcentres", "want kcenters or random"},
		{parhdeBin, "-algo", "multilevel", "want parhde, phde, pivotmds or prior"},
		{parhdeBin, "-format", "nope", formatList},
		{graphinfoBin, "-format", "nope", formatList},
	} {
		out, err := exec.Command(c.bin, "-in", edgesPath, c.flag, c.value).CombinedOutput()
		if err == nil {
			t.Fatalf("%s %s %s accepted", filepath.Base(c.bin), c.flag, c.value)
		}
		if !strings.Contains(string(out), c.value) || !strings.Contains(string(out), c.want) {
			t.Fatalf("%s %s %s: error does not name the value and the accepted set:\n%s", filepath.Base(c.bin), c.flag, c.value, out)
		}
	}
}

// formatList is how graph.Read's error spells graph.Formats; every tool
// that reads a graph file reports an unknown format with it.
const formatList = "have [edges mtx bin]"

func TestCLIHdebenchList(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test builds binaries")
	}
	dir := t.TempDir()
	bin := buildTool(t, dir, "hdebench")
	out := runTool(t, bin, "-list")
	for _, id := range []string{"table3", "fig4", "sssp", "refine", "incremental"} {
		if !strings.Contains(out, id) {
			t.Fatalf("hdebench -list missing %s:\n%s", id, out)
		}
	}
	// Every description starts at the same column, whatever the longest id.
	col := -1
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		id, desc, _ := strings.Cut(line, " ")
		at := len(line) - len(strings.TrimLeft(desc, " "))
		if col < 0 {
			col = at
		}
		if desc == "" || at != col {
			t.Fatalf("hdebench -list: description of %s starts at column %d, others at %d:\n%s", id, at, col, out)
		}
	}
	// A cheap experiment end to end.
	out = runTool(t, bin, "-exp", "table2")
	if !strings.Contains(out, "urand") || !strings.Contains(out, "pa2010") {
		t.Fatalf("table2 output:\n%s", out)
	}
}

// raceEnabled is set by race_test.go when this test binary is race-built.
var raceEnabled bool

// TestCLIHdesoak runs the recovery contract at smoke size: hdesoak starts
// a router and two hdeserve workers, SIGKILLs one with jobs queued and
// running, restarts it, and fails on any broken invariant. Under -race the
// workers are race-built too, and a race report on their stderr fails it.
func TestCLIHdesoak(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test builds binaries")
	}
	dir := t.TempDir()
	var flags []string
	if raceEnabled {
		flags = []string{"-race"}
	}
	serveBin := buildTool(t, dir, "hdeserve", flags...)
	soakBin := buildTool(t, dir, "hdesoak")
	runTool(t, soakBin, "-bin", serveBin, "-out", filepath.Join(dir, "soak.json"),
		"-workers", "2", "-jobs", "4", "-grid", "40", "-s", "64")
}

func TestCLIWeightedAndRefine(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test builds binaries")
	}
	dir := t.TempDir()
	gengraphBin := buildTool(t, dir, "gengraph")
	parhdeBin := buildTool(t, dir, "parhde")
	wPath := filepath.Join(dir, "wgrid.txt")
	runTool(t, gengraphBin, "-kind", "grid", "-rows", "40", "-cols", "40", "-weights", "9", "-o", wPath)
	out := runTool(t, parhdeBin, "-in", wPath, "-weighted", "-s", "8", "-refine", "5")
	if !strings.Contains(out, "refine: 5 LOBPCG iterations") {
		t.Fatalf("weighted+refine output: %s", out)
	}
}

func TestCLIHdeconvert(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test builds binaries")
	}
	dir := t.TempDir()
	gengraphBin := buildTool(t, dir, "gengraph")
	convertBin := buildTool(t, dir, "hdeconvert")

	src := filepath.Join(dir, "g.txt")
	runTool(t, gengraphBin, "-kind", "grid", "-rows", "30", "-cols", "30", "-o", src)

	// edges -> mtx -> bin -> edges round trip preserves size.
	mtx := filepath.Join(dir, "g.mtx")
	bin := filepath.Join(dir, "g.bin")
	back := filepath.Join(dir, "g2.txt")
	out1 := runTool(t, convertBin, "-in", src, "-out", mtx, "-to", "mtx")
	runTool(t, convertBin, "-in", mtx, "-from", "mtx", "-out", bin, "-to", "bin")
	out3 := runTool(t, convertBin, "-in", bin, "-from", "bin", "-out", back, "-to", "edges")
	if !strings.Contains(out1, "n=900") || !strings.Contains(out3, "n=900") {
		t.Fatalf("round trip changed size: %q %q", out1, out3)
	}

	// Permutation keeps sizes, changes mean gap.
	perm := filepath.Join(dir, "perm.txt")
	outP := runTool(t, convertBin, "-in", src, "-out", perm, "-permute", "-seed", "9")
	if !strings.Contains(outP, "n=900") {
		t.Fatalf("permute output: %q", outP)
	}

	// Neighborhood extraction shrinks the graph.
	ball := filepath.Join(dir, "ball.txt")
	outB := runTool(t, convertBin, "-in", src, "-out", ball, "-center", "465", "-hops", "3")
	if !strings.Contains(outB, "n=25") {
		t.Fatalf("3-hop ball of grid interior should have 25 vertices: %q", outB)
	}

	// Weight attachment produces a weighted file.
	wout := filepath.Join(dir, "w.txt")
	outW := runTool(t, convertBin, "-in", src, "-out", wout, "-add-weights", "9")
	if !strings.Contains(outW, "weighted=true") {
		t.Fatalf("weights output: %q", outW)
	}

	// An unknown input format is rejected with the accepted set named.
	outF, err := exec.Command(convertBin, "-in", src, "-from", "nope", "-out", back).CombinedOutput()
	if err == nil || !strings.Contains(string(outF), `"nope"`) || !strings.Contains(string(outF), formatList) {
		t.Fatalf("-from nope: err %v, output:\n%s", err, outF)
	}
}
