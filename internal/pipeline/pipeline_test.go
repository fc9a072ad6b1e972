package pipeline

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

func TestRunCtx(t *testing.T) {
	g := gen.PlateWithHoles(25, 25)
	res, err := RunCtx(context.Background(), g, Config{Layout: core.Options{Subspace: 10, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout.NumVertices() != g.NumV {
		t.Fatalf("layout size %d", res.Layout.NumVertices())
	}
	if res.Quality.HallRatio <= 0 {
		t.Fatal("quality not evaluated")
	}
	if res.Report == nil {
		t.Fatal("missing report")
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}

	skipped, err := RunCtx(context.Background(), g, Config{Layout: core.Options{Subspace: 10, Seed: 1}, SkipQuality: true})
	if err != nil {
		t.Fatal(err)
	}
	if skipped.Quality.HallRatio != 0 {
		t.Fatal("SkipQuality ignored")
	}
}

func TestRunErrorsPropagate(t *testing.T) {
	g := gen.Path(1) // too small for the engine
	if _, err := RunCtx(context.Background(), g, Config{}); err == nil {
		t.Fatal("tiny graph accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, gen.Grid2D(12, 12), Config{Layout: core.Options{Subspace: 4}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}
