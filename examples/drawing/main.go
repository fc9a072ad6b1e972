// Drawing gallery: reproduces the paper's Figures 1, 7, and 8 on the
// barth5 analogue — the same mesh drawn by ParHDE, ParHDE with random
// pivots, PHDE, PivotMDS, the full spectral method (LOBPCG to residual
// 1e-6), and a 10-hop zoom.
//
// Run with: go run ./examples/drawing [-out dir]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/eigen"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pivot"
	"repro/internal/render"
)

func main() {
	outDir := flag.String("out", "drawings", "output directory for PNG files")
	side := flag.Int("side", 120, "mesh side length (vertices before holes)")
	flag.Parse()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	g := gen.PlateWithHoles(*side, *side)
	fmt.Printf("plate-with-holes mesh (barth5 analogue): n=%d m=%d\n", g.NumV, g.NumEdges())

	type method struct {
		name string
		f    func() (*core.Layout, error)
	}
	methods := []method{
		{"parhde", func() (*core.Layout, error) {
			l, _, err := core.ParHDE(g, core.Options{Subspace: 50, Seed: 1})
			return l, err
		}},
		{"parhde_random_pivots", func() (*core.Layout, error) {
			l, _, err := core.ParHDE(g, core.Options{Subspace: 50, Seed: 1, Pivots: pivot.Random})
			return l, err
		}},
		{"phde", func() (*core.Layout, error) {
			l, _, err := core.PHDE(g, core.Options{Subspace: 50, Seed: 1})
			return l, err
		}},
		{"pivotmds", func() (*core.Layout, error) {
			l, _, err := core.PivotMDS(g, core.Options{Subspace: 50, Seed: 1})
			return l, err
		}},
		{"spectral", func() (*core.Layout, error) {
			ref := eigen.LOBPCG(g, 2, eigen.LOBPCGOptions{Seed: 1, MaxIters: 100000, Tol: 1e-6})
			return &core.Layout{Coords: ref.Vectors}, nil
		}},
	}
	for _, m := range methods {
		start := time.Now()
		lay, err := m.f()
		if err != nil {
			log.Fatalf("%s: %v", m.name, err)
		}
		elapsed := time.Since(start)
		q := core.Evaluate(g, lay)
		path := filepath.Join(*outDir, m.name+".png")
		if err := save(path, g, lay); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %8.3fs  Hall %.5f  -> %s\n", m.name, elapsed.Seconds(), q.HallRatio, path)
	}

	// Figure 8: the interactive zoom.
	center := int32(g.NumV / 2)
	z, err := core.Zoom(g, center, 10, core.Options{Subspace: 20, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(*outDir, "zoom.png")
	if err := save(path, z.Subgraph, z.Layout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s n=%d m=%d -> %s\n", "zoom(10 hops)", z.Subgraph.NumV, z.Subgraph.NumEdges(), path)
}

func save(path string, g *graph.CSR, lay *core.Layout) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return render.Draw(f, g, lay, render.Options{Size: 900})
}
