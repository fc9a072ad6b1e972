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
// keep doing so. They were re-recorded once, when the dense eigensolver
// went from Jacobi rotations to Householder + implicit QL: every layout
// column moved by at most 2.8e-12 of its max-norm, up to sign. vals are
// the two projected eigenvalues (Report.Eigenvalues) as the Jacobi solver
// computed them; they do not depend on the solver's rounding, so they
// held across that change. The /coupled rows were recorded with the
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
	{"kron", "mgs/kcenters", Options{Subspace: 12}, "5e82564b98028de21bf12a1e6890d860b43a0901a1ab79b5284e25196a3f3dff", [2]float64{0.83017349668503326, 0.84683417551730555}},
	{"kron", "mgs/kcenters/coupled", Options{Subspace: 12}, "5e82564b98028de21bf12a1e6890d860b43a0901a1ab79b5284e25196a3f3dff", [2]float64{0.83017349668503326, 0.84683417551730555}},
	{"kron", "mgs/random", Options{Subspace: 12, Pivots: pivot.Random}, "4131c25816a4a583ebaa35b9ebca65a6c1be7fa7eecff3d52e8cb2b3a55f4253", [2]float64{0.81599545440003418, 0.8323386942033052}},
	{"kron", "mgs/random-ms", Options{Subspace: 12, Pivots: pivot.RandomMS}, "4131c25816a4a583ebaa35b9ebca65a6c1be7fa7eecff3d52e8cb2b3a55f4253", [2]float64{0.81599545440003418, 0.8323386942033052}},
	{"kron", "cgs/kcenters", Options{Subspace: 12, Ortho: ortho.CGS}, "6ae4a23cd8224de90d0b06e9f9e88109b4a8194c78790906708750e576c11f90", [2]float64{0.83017349668504603, 0.84683417551728857}},
	{"kron", "cgs/random", Options{Subspace: 12, Ortho: ortho.CGS, Pivots: pivot.Random}, "eebc96ace4d804e3ba432e634eead22329bd8ca17c28ca912bde7440030b17ab", [2]float64{0.81599545440007448, 0.83233869420329631}},
	{"kron", "cgs/random-ms", Options{Subspace: 12, Ortho: ortho.CGS, Pivots: pivot.RandomMS}, "eebc96ace4d804e3ba432e634eead22329bd8ca17c28ca912bde7440030b17ab", [2]float64{0.81599545440007448, 0.83233869420329631}},
	{"kron", "mgs/narrow", Options{Subspace: 4}, "c012a317004f4cbaa40ab88e947d5e32bbe0d0e1f4518d8a140c6586f9b9f858", [2]float64{0.85451255078748045, 0.88253109491126402}},
	{"kron", "mgs/plain-ortho", Options{Subspace: 12, PlainOrtho: true}, "04040a22b83fd1d4407df33ef1d379460c5d498de95d732a4304f8926123fe6b", [2]float64{9.0313001959699104, 12.571797244666781}},
	{"road", "mgs/kcenters", Options{Subspace: 12}, "91041c680d0ff7704763cc68bbfd3a46110f6fca685a1f02efc405759efd9a58", [2]float64{4.6267611109132552e-05, 0.00023458965287890645}},
	{"road", "mgs/kcenters/coupled", Options{Subspace: 12}, "91041c680d0ff7704763cc68bbfd3a46110f6fca685a1f02efc405759efd9a58", [2]float64{4.6267611109132552e-05, 0.00023458965287890645}},
	{"road", "mgs/random", Options{Subspace: 12, Pivots: pivot.Random}, "64fb3f7f5dd41a33f4e4a81fc350af365ae5fb4c0810c794b6cba45a1f7dfdba", [2]float64{5.0018908960225292e-05, 0.00026305337977117942}},
	{"road", "mgs/random-ms", Options{Subspace: 12, Pivots: pivot.RandomMS}, "64fb3f7f5dd41a33f4e4a81fc350af365ae5fb4c0810c794b6cba45a1f7dfdba", [2]float64{5.0018908960225292e-05, 0.00026305337977117942}},
	{"road", "cgs/kcenters", Options{Subspace: 12, Ortho: ortho.CGS}, "d45637f955e12ae4e4ecdd5d13ac7acfeed78b43e3d9702689934b9f0cd8280d", [2]float64{4.626761110913243e-05, 0.00023458965287891348}},
	{"road", "cgs/random", Options{Subspace: 12, Ortho: ortho.CGS, Pivots: pivot.Random}, "c4038588282509bbcd6e9706ad741d5ef2f6be2b98b8f52950742f00d03f2708", [2]float64{5.0018908960224777e-05, 0.00026305337977117172}},
	{"road", "cgs/random-ms", Options{Subspace: 12, Ortho: ortho.CGS, Pivots: pivot.RandomMS}, "c4038588282509bbcd6e9706ad741d5ef2f6be2b98b8f52950742f00d03f2708", [2]float64{5.0018908960224777e-05, 0.00026305337977117172}},
	{"mesh3d", "mgs/kcenters", Options{Subspace: 12}, "3e086455dc77f17ae8203e9054bcd15c4064d34987be3272c4ee099d07bd3261", [2]float64{0.0041139552103267906, 0.0042318198480004844}},
	{"mesh3d", "mgs/kcenters/coupled", Options{Subspace: 12}, "3e086455dc77f17ae8203e9054bcd15c4064d34987be3272c4ee099d07bd3261", [2]float64{0.0041139552103267906, 0.0042318198480004844}},
	{"mesh3d", "mgs/random", Options{Subspace: 12, Pivots: pivot.Random}, "5931bba1cdebd5a4d24ac37bb66f74b518a2b87a0d546a57c40950ecf9e7400c", [2]float64{0.0040714000299999949, 0.004390938576050411}},
	{"mesh3d", "mgs/random-ms", Options{Subspace: 12, Pivots: pivot.RandomMS}, "5931bba1cdebd5a4d24ac37bb66f74b518a2b87a0d546a57c40950ecf9e7400c", [2]float64{0.0040714000299999949, 0.004390938576050411}},
	{"mesh3d", "cgs/kcenters", Options{Subspace: 12, Ortho: ortho.CGS}, "1fca4aa7ab6b6f617765d4c2a83443d2996474d8b415b4163065a09cf3dc2f9e", [2]float64{0.0041139552103292209, 0.0042318198480021819}},
	{"mesh3d", "cgs/random", Options{Subspace: 12, Ortho: ortho.CGS, Pivots: pivot.Random}, "74e5acfc8459e61a5d3d4c8a59fd44f83c8d5118e1c3d465e6d2ae2c9be7508a", [2]float64{0.0040714000299998119, 0.0043909385760504569}},
	{"mesh3d", "cgs/random-ms", Options{Subspace: 12, Ortho: ortho.CGS, Pivots: pivot.RandomMS}, "74e5acfc8459e61a5d3d4c8a59fd44f83c8d5118e1c3d465e6d2ae2c9be7508a", [2]float64{0.0040714000299998119, 0.0043909385760504569}},
	{"weighted-road", "mgs", Options{Subspace: 12}, "d3911ff082cadfaed0d2375a124e82e2f41df15eb4c001032c8713bd617b288c", [2]float64{0.00010708112851648881, 0.00054771914329085976}},
	{"weighted-road", "cgs", Options{Subspace: 12, Ortho: ortho.CGS}, "6ce3b598ec991da579efe77fd78c57d5e09d606d49918cbd2d5126aa5f523c2a", [2]float64{0.00010708112851648879, 0.00054771914329086377}},
	{"weighted-road", "mgs/narrow", Options{Subspace: 4}, "28318eb53dd3a75a0eb5be1a0088bbd7a220905afd2538d0f9a6635b0b074db4", [2]float64{0.00013337337480198529, 0.00075828812732813271}},
	// The corner pivots of a grid give hop columns that are affine in each
	// other, so DOrtho drops some: the keep/drop bookkeeping of the stream.
	{"grid", "mgs/dropped", Options{Subspace: 10}, "ca6fbead8bd532e464673d311b139aa034ae349a2853256a0b98ce574c854a2f", [2]float64{0.00041342430708687954, 0.00043142479769814535}},
	{"grid", "mgs/dropped/coupled", Options{Subspace: 10}, "ca6fbead8bd532e464673d311b139aa034ae349a2853256a0b98ce574c854a2f", [2]float64{0.00041342430708687954, 0.00043142479769814535}},
	{"grid", "cgs/dropped", Options{Subspace: 10, Ortho: ortho.CGS}, "b9e73a5add5bfa4f755005a26885b5f2ddc3e214259311c934165510c0f1f85a", [2]float64{0.0004134243070868816, 0.00043142479769814568}},
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
