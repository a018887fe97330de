package main

import (
	"math"
	"testing"

	"bohrium"
	"bohrium/internal/rewrite"
)

// TestPrice smoke-tests the example's pricing kernel at a reduced size:
// the mean call price over the deterministic spot stream must land in
// the analytically plausible band, and the optimizer-off, full-pipeline
// and async configurations must agree exactly (same byte-code, same
// deterministic RNG).
func TestPrice(t *testing.T) {
	const n = 1 << 12
	baseCtx := bohrium.NewContext(&bohrium.Config{Optimizer: &rewrite.Options{}, DisableFusion: true})
	defer baseCtx.Close()
	want, err := price(baseCtx, n)
	if err != nil {
		t.Fatal(err)
	}
	// Spot uniform in [80, 120), strike 100, r=2%, sigma=30%, T=1: the
	// mean call value sits solidly between 5 and 20.
	if want < 5 || want > 20 {
		t.Fatalf("mean price %v outside the plausible band [5, 20]", want)
	}

	for name, cfg := range map[string]*bohrium.Config{
		"full-pipeline": nil,
		"async":         {Async: true},
	} {
		t.Run(name, func(t *testing.T) {
			ctx := bohrium.NewContext(cfg)
			defer ctx.Close()
			got, err := price(ctx, n)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9*math.Abs(want) {
				t.Errorf("mean price = %v, want %v (unoptimized)", got, want)
			}
		})
	}
}
