// Power chains: the paper's equation (1) and Listings 4–5.
//
// x¹⁰ is computed four ways — BH_POWER directly, the naive 9-multiply
// chain (Listing 4), the paper's 5-multiply square-then-increment chain
// (Listing 5), and the 4-multiply binary chain this reproduction adds —
// and each variant is timed over a large vector.
//
//	go run ./examples/powerchains
package main

import (
	"fmt"
	"log"
	"time"

	"bohrium"
	"bohrium/internal/chains"
	"bohrium/internal/rewrite"
)

const (
	n        = 1 << 20
	exponent = 10
)

func main() {
	fmt.Printf("x^%d over %d elements\n\n", exponent, n)

	variants := []struct {
		name string
		opts rewrite.Options
	}{
		{"BH_POWER (no expansion)", rewrite.Options{}},
		{"naive chain (Listing 4)", expansion(chains.StrategyNaive)},
		{"paper chain (Listing 5)", expansion(chains.StrategySquareIncrement)},
		{"binary chain (ours)", expansion(chains.StrategyBinary)},
	}

	for _, v := range variants {
		opts := v.opts
		ctx := bohrium.NewContext(&bohrium.Config{Optimizer: &opts})

		start := time.Now()
		first, err := raise(ctx, n, exponent)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)

		muls := "kept BH_POWER"
		if rep := ctx.LastReport(); rep != nil && rep.Applied["power-expand"] > 0 {
			muls = fmt.Sprintf("expanded to %d BH_MULTIPLYs", ctx.MustStats().Instructions-1)
		}
		fmt.Printf("%-28s %10v   y[0]=%.9f   (%s)\n", v.name, elapsed.Round(10*time.Microsecond), first, muls)
		ctx.Close()
	}

	fmt.Println("\nchain shapes (exponents reached after each multiply):")
	for _, s := range []chains.Strategy{chains.StrategyNaive, chains.StrategySquareIncrement, chains.StrategyBinary} {
		c, err := chains.Generate(s, exponent)
		if err != nil {
			log.Fatal(err)
		}
		exps, err := c.Exponents()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s %d multiplies: %v\n", s, c.MultiplyCount(), exps[1:])
	}
}

// raise computes y = x^exp over n elements of the base 1.0000001 and
// returns y[0]; whether BH_POWER survives or expands into a multiply
// chain is the context's optimizer's decision.
func raise(ctx *bohrium.Context, n int, exp float64) (float64, error) {
	x := ctx.Full(1.0000001, n)
	y := x.Power(exp)
	return y.At(0)
}

func expansion(s chains.Strategy) rewrite.Options {
	return rewrite.Options{
		PowerExpand:      true,
		PowerStrategy:    s,
		PowerNoCostModel: true, // demo: expand even when the model says keep POWER
	}
}
