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

// goldenLayouts are layout checksums recorded at commit 9cee306, the last
// one that still carried the streaming, flat-arena, column-wise and
// top-down-only kernel variants. Every surviving kernel must keep
// reproducing them bit for bit.
var goldenLayouts = []struct {
	graph string
	name  string
	opt   Options
	sum   string
}{
	{"kron", "mgs/kcenters", Options{Subspace: 12}, "4ef34ccbac88a9552b6db0828f5b18f80c6d4b6c55e8b15918067197f7694787"},
	{"kron", "mgs/kcenters/coupled", Options{Subspace: 12, Coupled: true}, "4ef34ccbac88a9552b6db0828f5b18f80c6d4b6c55e8b15918067197f7694787"},
	{"kron", "mgs/random", Options{Subspace: 12, Pivots: pivot.Random}, "806d7b5109cc090c89b9ee109a70f547408ac929b0d68d80a18b942e6bf70f4e"},
	{"kron", "mgs/random-ms", Options{Subspace: 12, Pivots: pivot.RandomMS}, "806d7b5109cc090c89b9ee109a70f547408ac929b0d68d80a18b942e6bf70f4e"},
	{"kron", "cgs/kcenters", Options{Subspace: 12, Ortho: ortho.CGS}, "8d7e43d3633e2a77065ccdb1c465330fa51e79965045358b6bdfada35c0f3567"},
	{"kron", "cgs/random", Options{Subspace: 12, Ortho: ortho.CGS, Pivots: pivot.Random}, "f9e8f4ebb9418e548fd2e22617f2643a0d625e09b2e3a46b3351534acb9cc1ba"},
	{"kron", "cgs/random-ms", Options{Subspace: 12, Ortho: ortho.CGS, Pivots: pivot.RandomMS}, "f9e8f4ebb9418e548fd2e22617f2643a0d625e09b2e3a46b3351534acb9cc1ba"},
	{"kron", "mgs/narrow", Options{Subspace: 4}, "eef5b9b329833c1ff690f1786d1307a47646bb4875d58ac98466dd456dc5ba12"},
	{"kron", "mgs/plain-ortho", Options{Subspace: 12, PlainOrtho: true}, "66fdf7db731e89f8deffafeea0fd8e322e15318baacd6b86bfac2c5746993ec9"},
	{"road", "mgs/kcenters", Options{Subspace: 12}, "1eadbd6e7f3bda6d266f85b4bda95b7f7ea53bcb253b96af2b91bf3dc254d817"},
	{"road", "mgs/kcenters/coupled", Options{Subspace: 12, Coupled: true}, "1eadbd6e7f3bda6d266f85b4bda95b7f7ea53bcb253b96af2b91bf3dc254d817"},
	{"road", "mgs/random", Options{Subspace: 12, Pivots: pivot.Random}, "7a59d7d91738fd720e9ad55586c06c81b6371da03921ab9e5da91a6dd7375fc4"},
	{"road", "mgs/random-ms", Options{Subspace: 12, Pivots: pivot.RandomMS}, "7a59d7d91738fd720e9ad55586c06c81b6371da03921ab9e5da91a6dd7375fc4"},
	{"road", "cgs/kcenters", Options{Subspace: 12, Ortho: ortho.CGS}, "b0b9d5cfe914b84a04b538a4a9beb96868f5ed65efdb518ba4b16c69fbe86f32"},
	{"road", "cgs/random", Options{Subspace: 12, Ortho: ortho.CGS, Pivots: pivot.Random}, "1a5fe75f25edd566e9687bb44f2aec9770b086ae905483f212cd2320767b5596"},
	{"road", "cgs/random-ms", Options{Subspace: 12, Ortho: ortho.CGS, Pivots: pivot.RandomMS}, "1a5fe75f25edd566e9687bb44f2aec9770b086ae905483f212cd2320767b5596"},
	{"mesh3d", "mgs/kcenters", Options{Subspace: 12}, "f9380ec3874f653d48d3d121bb3635d220cc653e7ecdf509cb9bc6f3933d5154"},
	{"mesh3d", "mgs/kcenters/coupled", Options{Subspace: 12, Coupled: true}, "f9380ec3874f653d48d3d121bb3635d220cc653e7ecdf509cb9bc6f3933d5154"},
	{"mesh3d", "mgs/random", Options{Subspace: 12, Pivots: pivot.Random}, "ca2d0db725b2ff67a918c0d6d87c4c16605e4ea6a42ec98d346dbbf3cb83c9b3"},
	{"mesh3d", "mgs/random-ms", Options{Subspace: 12, Pivots: pivot.RandomMS}, "ca2d0db725b2ff67a918c0d6d87c4c16605e4ea6a42ec98d346dbbf3cb83c9b3"},
	{"mesh3d", "cgs/kcenters", Options{Subspace: 12, Ortho: ortho.CGS}, "69950b613940de4ae207ebdfbe69decae4fd819141f113f909c0e7ae03a67305"},
	{"mesh3d", "cgs/random", Options{Subspace: 12, Ortho: ortho.CGS, Pivots: pivot.Random}, "11333832f3686c661d4e1c5d9d53e7190530ccfd93312416c3d40020c922a29d"},
	{"mesh3d", "cgs/random-ms", Options{Subspace: 12, Ortho: ortho.CGS, Pivots: pivot.RandomMS}, "11333832f3686c661d4e1c5d9d53e7190530ccfd93312416c3d40020c922a29d"},
	{"weighted-road", "mgs", Options{Subspace: 12}, "ed1892c70a0aea6b11dc664c7f7b5be04fe411abd75159d7dc59c5061bf92f41"},
	{"weighted-road", "cgs", Options{Subspace: 12, Ortho: ortho.CGS}, "f01dab694635d433fb9990346b822f65f7dcd60a4691a4d57f192d4f86bf0652"},
	{"weighted-road", "mgs/narrow", Options{Subspace: 4}, "1228a221a63b1189d36f521b526b0830e0573d4ebfa9eb8cb7b85a2eb2ddd8c0"},
	// The corner pivots of a grid give hop columns that are affine in each
	// other, so DOrtho drops some: the keep/drop bookkeeping of both
	// sweeps, decoupled and coupled.
	{"grid", "mgs/dropped", Options{Subspace: 10}, "48a5ccb6484d160abbdfa363269ecbb249b59e3265540ef65a40c5791176b51b"},
	{"grid", "mgs/dropped/coupled", Options{Subspace: 10, Coupled: true}, "48a5ccb6484d160abbdfa363269ecbb249b59e3265540ef65a40c5791176b51b"},
	{"grid", "cgs/dropped", Options{Subspace: 10, Ortho: ortho.CGS}, "407740b32561e090fe9796c516bd99ee6d9023e75cf46da7cd2739fb7b63e728"},
}

// TestGoldenLayoutChecksums holds every surviving kernel to the layouts
// the full variant lattice produced: each configuration must reproduce its
// recorded checksum under worker budgets 1, 2 and 4, from fresh
// allocations and through one workspace that every run before it has
// dirtied.
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
