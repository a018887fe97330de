package main

import (
	"math"
	"testing"

	"bohrium"
	"bohrium/internal/chains"
	"bohrium/internal/rewrite"
)

// TestRaiseVariants smoke-tests the example's core computation at a
// reduced size: x^10 of the base 1.0000001 through BH_POWER and through
// every expansion strategy must match the known value 1.0000001^10, and
// the async pipeline must agree too.
func TestRaiseVariants(t *testing.T) {
	const n = 1 << 10
	want := math.Pow(1.0000001, 10)

	opts := []struct {
		name string
		cfg  *bohrium.Config
	}{
		{"power-kept", &bohrium.Config{Optimizer: &rewrite.Options{}}},
		{"naive-chain", optCfg(expansion(chains.StrategyNaive))},
		{"paper-chain", optCfg(expansion(chains.StrategySquareIncrement))},
		{"binary-chain", optCfg(expansion(chains.StrategyBinary))},
		{"async", &bohrium.Config{Async: true}},
	}
	for _, v := range opts {
		t.Run(v.name, func(t *testing.T) {
			ctx := bohrium.NewContext(v.cfg)
			defer ctx.Close()
			got, err := raise(ctx, n, 10)
			if err != nil {
				t.Fatal(err)
			}
			// Chains reassociate the multiplies, so allow one float64 ulp
			// of slack around the math.Pow reference.
			if math.Abs(got-want) > 1e-15 {
				t.Errorf("y[0] = %.17g, want %.17g", got, want)
			}
		})
	}
}

func optCfg(o rewrite.Options) *bohrium.Config {
	return &bohrium.Config{Optimizer: &o}
}
