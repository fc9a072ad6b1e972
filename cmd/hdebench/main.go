// Command hdebench regenerates the paper's tables and figures on the
// synthetic analogue graphs. Run `hdebench -list` to see experiment ids;
// `hdebench -exp all` reproduces the complete evaluation.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/exp"
)

func main() {
	var (
		name    = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		factor  = flag.Int("factor", 1, "dataset scale factor (edges grow ~linearly)")
		reps    = flag.Int("reps", 3, "timing repetitions (minimum reported)")
		s       = flag.Int("s", 10, "subspace dimension where not pinned by the experiment")
		outDir  = flag.String("out", "", "directory for PNG drawings (fig1/7/8)")
		threads = flag.Int("threads", 0, "max GOMAXPROCS for sweeps (0 = all cores)")
	)
	flag.Parse()
	if *list {
		ids := exp.Names()
		width := 0
		for _, id := range ids {
			if len(id) > width {
				width = len(id)
			}
		}
		for _, id := range ids {
			desc, _ := exp.Describe(id)
			fmt.Printf("%-*s %s\n", width, id, desc)
		}
		return
	}
	if *name == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg := exp.Config{
		Factor:     *factor,
		Reps:       *reps,
		Subspace:   *s,
		OutDir:     *outDir,
		MaxThreads: *threads,
	}
	if err := exp.Run(*name, os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "hdebench:", err)
		os.Exit(1)
	}
}
