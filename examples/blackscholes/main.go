// Black-Scholes option pricing — the classic Bohrium benchmark kernel,
// here exercising the full pipeline on a compute-bound workload: log,
// sqrt, tanh and power sweeps over a million options, with the optimizer
// expanding the cube in the CDF approximation into multiplies and fusion
// merging the elementwise chains.
//
//	go run ./examples/blackscholes
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"bohrium"
	"bohrium/internal/rewrite"
)

const nOptions = 1 << 20

func main() {
	fmt.Printf("Black-Scholes, %d call options (spot 80-120, strike 100, r=2%%, sigma=30%%)\n\n", nOptions)

	for _, cfg := range []struct {
		name string
		conf *bohrium.Config
	}{
		{"optimizer+fusion off", &bohrium.Config{Optimizer: &rewrite.Options{}, DisableFusion: true}},
		{"full pipeline", nil},
	} {
		ctx := bohrium.NewContext(cfg.conf)
		start := time.Now()
		mean, err := price(ctx, nOptions)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		fmt.Printf("%-22s %10v   mean price = %.4f\n", cfg.name, elapsed.Round(time.Millisecond), mean)
		if rep := ctx.LastReport(); rep != nil {
			fmt.Printf("%22s rewrites: %d (power-expand %d)\n", "",
				rep.TotalApplied(), rep.Applied["power-expand"])
		}
		ctx.Close()
	}
}

// price computes European call prices for n options under Black-Scholes
// with the normal CDF approximated by
// Φ(x) ≈ ½(1 + tanh(√(2/π)(x + 0.044715·x³))) and returns the portfolio
// mean.
func price(ctx *bohrium.Context, n int) (float64, error) {
	const r, sigma, strike = 0.02, 0.3, 100.0

	spot := ctx.Random(2024, n)
	spot.MulC(40).AddC(80)
	k := ctx.Full(strike, n)

	d1 := spot.Over(k).Log()
	d1.AddC(r + sigma*sigma/2).DivC(sigma) // T = 1 year
	d2 := d1.Copy().SubC(sigma)

	price := spot.Times(cnd(d1))
	price.Sub(k.TimesC(math.Exp(-r)).Mul(cnd(d2)))
	return price.Mean().Scalar()
}

func cnd(x *bohrium.Array) *bohrium.Array {
	// x³ recorded as BH_POWER 3: the power-expansion rewrite turns it
	// into two BH_MULTIPLYs.
	x3 := x.Power(3).MulC(0.044715)
	return x.Plus(x3).MulC(math.Sqrt(2 / math.Pi)).Tanh().AddC(1).MulC(0.5)
}
