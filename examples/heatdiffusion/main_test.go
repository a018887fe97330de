package main

import (
	"math"
	"testing"

	"bohrium"
	"bohrium/internal/rewrite"
)

// TestSimulate smoke-tests the stencil at a reduced grid: the probe near
// the hot boundary warms to a positive temperature below the boundary's
// 100°, and every configuration — optimizer off, full pipeline, async —
// produces bit-for-bit the same value (pure view arithmetic, no
// reassociation).
func TestSimulate(t *testing.T) {
	const n, sweeps = 32, 20
	baseCtx := bohrium.NewContext(&bohrium.Config{Optimizer: &rewrite.Options{}, DisableFusion: true})
	defer baseCtx.Close()
	want, err := simulate(baseCtx, n, sweeps)
	if err != nil {
		t.Fatal(err)
	}
	if !(want > 0 && want < 100) {
		t.Fatalf("probe %v outside (0, 100)", want)
	}

	for name, cfg := range map[string]*bohrium.Config{
		"full-pipeline": nil,
		"async":         {Async: true},
	} {
		t.Run(name, func(t *testing.T) {
			ctx := bohrium.NewContext(cfg)
			defer ctx.Close()
			got, err := simulate(ctx, n, sweeps)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("probe = %v, want %v bit-for-bit", got, want)
			}
		})
	}
}
