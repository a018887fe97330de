// Monte Carlo option pricing — the stochastic counterpart of the
// closed-form examples/blackscholes kernel. Two deterministic BH_RANDOM
// streams feed a Box-Muller transform; each normal draw becomes a
// terminal stock price under geometric Brownian motion, and the
// discounted mean payoff prices a European call. The workload is RNG +
// long elementwise chains + one reduction, the shape the fused engine
// likes: fused, unfused and async execution must produce the
// bit-identical price, so the example runs the same simulation in each
// mode and compares against the closed-form value.
//
//	go run ./examples/montecarlo
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"bohrium"
)

const (
	nPaths = 1 << 20
	spot   = 100.0
	strike = 105.0
	rate   = 0.02
	sigma  = 0.3
	expiry = 1.0 // years
)

func main() {
	exact := closedForm(spot, strike, rate, sigma, expiry)
	fmt.Printf("European call, Monte Carlo with %d paths (S0=%g K=%g r=%g sigma=%g T=%g)\n",
		nPaths, spot, strike, rate, sigma, expiry)
	fmt.Printf("closed-form Black-Scholes price: %.6f\n\n", exact)

	for _, cfg := range []struct {
		name string
		conf *bohrium.Config
	}{
		{"fused", nil},
		{"fused async", &bohrium.Config{Async: true}},
		{"unfused", &bohrium.Config{DisableFusion: true}},
	} {
		ctx := bohrium.NewContext(cfg.conf)
		start := time.Now()
		mc, err := price(ctx, nPaths)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		st := ctx.MustStats()
		fmt.Printf("%-12s %10v   price=%.6f   error=%+.4f%%   sweeps=%d\n",
			cfg.name, elapsed.Round(time.Millisecond), mc, 100*(mc-exact)/exact, st.Sweeps)
		ctx.Close()
	}

	fmt.Println("\nevery mode prices from the same deterministic BH_RANDOM streams,")
	fmt.Println("so the three prices above are bit-identical; the Monte Carlo error")
	fmt.Println("against the closed form is the sampling error of the paths alone.")
}

// price simulates n GBM paths to expiry and returns the discounted mean
// call payoff.
func price(ctx *bohrium.Context, n int) (float64, error) {
	// Box-Muller: Z = sqrt(-2 ln U1) * cos(2π U2). BH_RANDOM draws lie in
	// [0, 1); mapping U1 -> 1-U1 moves them to (0, 1] so the log is finite.
	u1 := ctx.Random(7, n)
	u1.MulC(-1).AddC(1)
	u2 := ctx.Random(11, n)
	z := u1.Log().MulC(-2).Sqrt()
	z.Mul(u2.MulC(2 * math.Pi).Cos())

	// Terminal price under GBM: ST = S0 exp((r - sigma^2/2) T + sigma sqrt(T) Z).
	st := z.MulC(sigma * math.Sqrt(expiry)).AddC((rate - sigma*sigma/2) * expiry).Exp().MulC(spot)

	// Discounted mean payoff: e^{-rT} mean(max(ST - K, 0)).
	payoff := st.SubC(strike).Maximum(ctx.Zeros(n))
	return payoff.Mean().MulC(math.Exp(-rate * expiry)).Scalar()
}

// closedForm is the Black-Scholes call price with the exact normal CDF
// (via erf) — the reference the simulation converges to.
func closedForm(s0, k, r, sig, t float64) float64 {
	d1 := (math.Log(s0/k) + (r+sig*sig/2)*t) / (sig * math.Sqrt(t))
	d2 := d1 - sig*math.Sqrt(t)
	return s0*cdf(d1) - k*math.Exp(-r*t)*cdf(d2)
}

func cdf(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }
