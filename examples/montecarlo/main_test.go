package main

import (
	"math"
	"testing"

	"bohrium"
)

// TestMonteCarloPrice smoke-tests the simulation in every configuration
// the example ships: default, async and unfused. The price must land near
// the closed-form value (sampling error only) and be bit-identical across
// configurations — the deterministic BH_RANDOM streams and the
// differential contract guarantee it.
func TestMonteCarloPrice(t *testing.T) {
	const n = 1 << 16
	exact := closedForm(spot, strike, rate, sigma, expiry)

	configs := map[string]*bohrium.Config{
		"default": nil,
		"async":   {Async: true},
		"unfused": {DisableFusion: true},
	}
	var ref float64
	var haveRef bool
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			ctx := bohrium.NewContext(cfg)
			defer ctx.Close()
			mc, err := price(ctx, n)
			if err != nil {
				t.Fatal(err)
			}
			// 65536 paths put the standard error near 0.06; 3% of the
			// ~7.1 price is a generous five-sigma band.
			if math.Abs(mc-exact)/exact > 0.03 {
				t.Errorf("price = %v, closed form = %v (off by %.2f%%)", mc, exact, 100*math.Abs(mc-exact)/exact)
			}
			if !haveRef {
				ref, haveRef = mc, true
			} else if math.Float64bits(mc) != math.Float64bits(ref) {
				t.Errorf("price = %x, want bit-identical %x across configs", mc, ref)
			}
		})
	}
}
