package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/ortho"
	"repro/internal/pivot"
	"repro/internal/workspace"
)

// layoutChecksum is the SHA-256 of a layout's shape and the IEEE-754 bits
// of its coordinates in storage order.
func layoutChecksum(l *Layout) string {
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	put(uint64(l.Coords.Rows))
	put(uint64(l.Coords.Cols))
	for _, v := range l.Coords.Data {
		put(math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenLayouts are layout checksums. The streaming, flat-arena,
// column-wise and top-down-only kernel variants that commit 9cee306 still
// carried reproduced them bit for bit, and every surviving kernel must
// keep doing so. They were re-recorded twice: when the dense eigensolver
// went from Jacobi rotations to Householder + implicit QL, every layout
// column moved by at most 2.8e-12 of its max-norm, up to sign; when
// TripleProd began to sweep only Z's upper triangle and mirror it, and
// the eigensolver to read only that triangle, by at most 4.9e-14. vals
// are the two projected eigenvalues (Report.Eigenvalues) as the Jacobi
// solver computed them; they do not depend on the solver's rounding, so
// they held across both changes. The /coupled rows were recorded with the
// coupled BFS + D-orthogonalization (§4.4) when it was an option; it is
// now the only pipeline, so they run their twins' configuration and must
// match them.
var goldenLayouts = []struct {
	graph string
	name  string
	opt   Options
	sum   string
	vals  [2]float64
}{
	{"kron", "mgs/kcenters", Options{Subspace: 12}, "a12dc6f55a0bdab99b6166169479000820622b895936ab4e1fd3b65643620ee0", [2]float64{0.83017349668503326, 0.84683417551730555}},
	{"kron", "mgs/kcenters/coupled", Options{Subspace: 12}, "a12dc6f55a0bdab99b6166169479000820622b895936ab4e1fd3b65643620ee0", [2]float64{0.83017349668503326, 0.84683417551730555}},
	{"kron", "mgs/random", Options{Subspace: 12, Pivots: pivot.Random}, "76180242fd49fbb7244770c29547c12a3f2f38ece8c95d7ce478657f690a0f5a", [2]float64{0.81599545440003418, 0.8323386942033052}},
	{"kron", "mgs/random-ms", Options{Subspace: 12, Pivots: pivot.RandomMS}, "76180242fd49fbb7244770c29547c12a3f2f38ece8c95d7ce478657f690a0f5a", [2]float64{0.81599545440003418, 0.8323386942033052}},
	{"kron", "cgs/kcenters", Options{Subspace: 12, Ortho: ortho.CGS}, "ac7aa585af484e1e43fb0a2c1c1adadee2404cafb7a016605e87ebbfd4d1ecc3", [2]float64{0.83017349668504603, 0.84683417551728857}},
	{"kron", "cgs/random", Options{Subspace: 12, Ortho: ortho.CGS, Pivots: pivot.Random}, "7d252ae813c6ae43df80e22732a1da8bf942079a7d5ba17f1b4b147abdb22808", [2]float64{0.81599545440007448, 0.83233869420329631}},
	{"kron", "cgs/random-ms", Options{Subspace: 12, Ortho: ortho.CGS, Pivots: pivot.RandomMS}, "7d252ae813c6ae43df80e22732a1da8bf942079a7d5ba17f1b4b147abdb22808", [2]float64{0.81599545440007448, 0.83233869420329631}},
	{"kron", "mgs/narrow", Options{Subspace: 4}, "3e58ead467e206b6e64550bfd34fe229bd82590cb6d1efaacced7c7625dc97fd", [2]float64{0.85451255078748045, 0.88253109491126402}},
	{"kron", "mgs/plain-ortho", Options{Subspace: 12, PlainOrtho: true}, "e094bcfa3dbe73a697fc55af90983cb27c29485ea417d603127a1afa9d4abc21", [2]float64{9.0313001959699104, 12.571797244666781}},
	{"road", "mgs/kcenters", Options{Subspace: 12}, "7823dfd424a9997da1b8d20040715c5b49cda48efc176b76fcc92a67c29cee6a", [2]float64{4.6267611109132552e-05, 0.00023458965287890645}},
	{"road", "mgs/kcenters/coupled", Options{Subspace: 12}, "7823dfd424a9997da1b8d20040715c5b49cda48efc176b76fcc92a67c29cee6a", [2]float64{4.6267611109132552e-05, 0.00023458965287890645}},
	{"road", "mgs/random", Options{Subspace: 12, Pivots: pivot.Random}, "10adbd5c687a688a103d53b9750a6122fd97d61a1b8191fdfbe6e7ad803ad629", [2]float64{5.0018908960225292e-05, 0.00026305337977117942}},
	{"road", "mgs/random-ms", Options{Subspace: 12, Pivots: pivot.RandomMS}, "10adbd5c687a688a103d53b9750a6122fd97d61a1b8191fdfbe6e7ad803ad629", [2]float64{5.0018908960225292e-05, 0.00026305337977117942}},
	{"road", "cgs/kcenters", Options{Subspace: 12, Ortho: ortho.CGS}, "9063615acb5fa5185d460dfe5dcf9b8267081721db1490954f0f3d87b0dda415", [2]float64{4.626761110913243e-05, 0.00023458965287891348}},
	{"road", "cgs/random", Options{Subspace: 12, Ortho: ortho.CGS, Pivots: pivot.Random}, "2c36f9fd42fbdcd2305d896dfdbfb6ef4169b2aab75cb9932f22f2016ac16297", [2]float64{5.0018908960224777e-05, 0.00026305337977117172}},
	{"road", "cgs/random-ms", Options{Subspace: 12, Ortho: ortho.CGS, Pivots: pivot.RandomMS}, "2c36f9fd42fbdcd2305d896dfdbfb6ef4169b2aab75cb9932f22f2016ac16297", [2]float64{5.0018908960224777e-05, 0.00026305337977117172}},
	{"mesh3d", "mgs/kcenters", Options{Subspace: 12}, "458e54807dc333a777e5683cf13cb355bb7542e7af80650adac69d608d8bd064", [2]float64{0.0041139552103267906, 0.0042318198480004844}},
	{"mesh3d", "mgs/kcenters/coupled", Options{Subspace: 12}, "458e54807dc333a777e5683cf13cb355bb7542e7af80650adac69d608d8bd064", [2]float64{0.0041139552103267906, 0.0042318198480004844}},
	{"mesh3d", "mgs/random", Options{Subspace: 12, Pivots: pivot.Random}, "62b92414934ce0fd665ff9299d2562c6ae5231d0399c2f8a7babb1a9c31f9cc5", [2]float64{0.0040714000299999949, 0.004390938576050411}},
	{"mesh3d", "mgs/random-ms", Options{Subspace: 12, Pivots: pivot.RandomMS}, "62b92414934ce0fd665ff9299d2562c6ae5231d0399c2f8a7babb1a9c31f9cc5", [2]float64{0.0040714000299999949, 0.004390938576050411}},
	{"mesh3d", "cgs/kcenters", Options{Subspace: 12, Ortho: ortho.CGS}, "dd61b7f42993b5b0af6701aeae4596e31e1b6a80b3e398de3050a83575e7d4a0", [2]float64{0.0041139552103292209, 0.0042318198480021819}},
	{"mesh3d", "cgs/random", Options{Subspace: 12, Ortho: ortho.CGS, Pivots: pivot.Random}, "4f7247ec96d8fa80bdcc9d526bf13b03e070ba44c7a163851b211b0dd4c301e3", [2]float64{0.0040714000299998119, 0.0043909385760504569}},
	{"mesh3d", "cgs/random-ms", Options{Subspace: 12, Ortho: ortho.CGS, Pivots: pivot.RandomMS}, "4f7247ec96d8fa80bdcc9d526bf13b03e070ba44c7a163851b211b0dd4c301e3", [2]float64{0.0040714000299998119, 0.0043909385760504569}},
	{"weighted-road", "mgs", Options{Subspace: 12}, "926f87ef32ebd3d527b616268da6a02fb2601cfc6397d483de94623c80473c1f", [2]float64{0.00010708112851648881, 0.00054771914329085976}},
	{"weighted-road", "cgs", Options{Subspace: 12, Ortho: ortho.CGS}, "a0207352f76bae4271f42ad2b8cf5c19129822c4e23e34ec736c7af5c62b55e1", [2]float64{0.00010708112851648879, 0.00054771914329086377}},
	{"weighted-road", "mgs/narrow", Options{Subspace: 4}, "aae1cc250bf9a8a84bd2b3f2ccb9b24bcf0510e040e31072876bbcbfebb44ce8", [2]float64{0.00013337337480198529, 0.00075828812732813271}},
	// The corner pivots of a grid give hop columns that are affine in each
	// other, so DOrtho drops some: the keep/drop bookkeeping of the stream.
	{"grid", "mgs/dropped", Options{Subspace: 10}, "75823765a8fbc34e03798f759c34e8165b94278e1bac942db460cd1b2824172f", [2]float64{0.00041342430708687954, 0.00043142479769814535}},
	{"grid", "mgs/dropped/coupled", Options{Subspace: 10}, "75823765a8fbc34e03798f759c34e8165b94278e1bac942db460cd1b2824172f", [2]float64{0.00041342430708687954, 0.00043142479769814535}},
	{"grid", "cgs/dropped", Options{Subspace: 10, Ortho: ortho.CGS}, "22727021e0cfa76300756eb3deda324948545a64b72eb87a0362a3fb34c38437", [2]float64{0.0004134243070868816, 0.00043142479769814568}},
}

// TestGoldenLayoutChecksums holds every surviving kernel to the recorded
// layouts: each configuration must reproduce its checksum, and its
// eigenvalues to 1e-10 relative, under worker budgets 1, 2 and 4, from
// fresh allocations and through one workspace that every run before it
// has dirtied.
func TestGoldenLayoutChecksums(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The compiler fuses x*y+z on arm64, ppc64le, s390x and riscv64,
		// which rounds once where amd64 rounds twice.
		t.Skip("checksums were recorded on amd64")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	graphs := map[string]*graph.CSR{
		"kron":          gen.Kron(13, 8, 3),     // n = 8192: two reduction tiles
		"road":          gen.Road(96, 96, 5),    // n ≤ 9216, high diameter
		"mesh3d":        gen.Mesh3D(21, 21, 21), // n = 9261
		"weighted-road": gen.WithRandomWeights(gen.Road(80, 80, 7), 9, 11),
		"grid":          gen.Grid2D(80, 80),
	}
	ws := workspace.New()
	for _, c := range goldenLayouts {
		t.Run(c.graph+"/"+c.name, func(t *testing.T) {
			g := graphs[c.graph]
			for _, workers := range []int{1, 2, 4} {
				for _, pooled := range []bool{false, true} {
					opt := c.opt
					opt.Seed = 17
					opt.Workers = workers
					if pooled {
						opt.Workspace = ws
					}
					lay, rep, err := ParHDE(g, opt)
					if err != nil {
						t.Fatalf("workers=%d pooled=%v: %v", workers, pooled, err)
					}
					for i, want := range c.vals {
						if got := rep.Eigenvalues[i]; math.Abs(got-want) > 1e-10*math.Abs(want) {
							t.Fatalf("workers=%d pooled=%v: eigenvalue %d = %.17g, recorded %.17g", workers, pooled, i, got, want)
						}
					}
					if got := layoutChecksum(lay); got != c.sum {
						t.Fatalf("workers=%d pooled=%v: checksum %s, recorded %s", workers, pooled, got, c.sum)
					}
					switch {
					case c.graph == "grid" && rep.DroppedColumns == 0:
						t.Fatalf("workers=%d pooled=%v: no column dropped", workers, pooled)
					case c.graph != "grid" && c.opt.Subspace == 12 && rep.KeptColumns <= linalg.PanelCols:
						// The constant column plus the kept ones must span
						// more than one panel of the packed store.
						t.Fatalf("workers=%d pooled=%v: kept %d columns, want more than one panel", workers, pooled, rep.KeptColumns)
					}
				}
			}
		})
	}
}
