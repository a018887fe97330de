// Heat diffusion: a 2-D Jacobi stencil on an n×n grid — the kind of
// imaging/energy-materials workload the paper's CINEMA project motivates.
// The five-point stencil is pure view arithmetic; sweep fusion merges the
// per-iteration elementwise byte-codes into single passes over the grid.
//
//	go run ./examples/heatdiffusion
package main

import (
	"fmt"
	"log"
	"time"

	"bohrium"
	"bohrium/internal/rewrite"
)

const (
	gridN = 128
	iters = 100
)

func main() {
	fmt.Printf("2-D heat diffusion, %dx%d grid, %d Jacobi iterations\n\n", gridN, gridN, iters)

	for _, cfg := range []struct {
		name string
		conf *bohrium.Config
	}{
		{"optimizer+fusion off", &bohrium.Config{Optimizer: &rewrite.Options{}, DisableFusion: true}},
		{"full pipeline", nil},
	} {
		ctx := bohrium.NewContext(cfg.conf)
		start := time.Now()
		center, err := simulate(ctx, gridN, iters)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		st := ctx.MustStats()
		fmt.Printf("%-22s %10v   probe=%.4f   sweeps=%d (of %d byte-codes, %d chained)\n",
			cfg.name, elapsed.Round(100*time.Microsecond), center, st.Sweeps, st.Instructions, st.ChainedInstructions)
		ctx.Close()
	}
}

// simulate runs sweeps Jacobi iterations on an n×n grid with a hot
// (100°) northern boundary and returns the temperature at a probe point
// near the hot edge (heat reaches the grid center only after ~n²
// iterations).
func simulate(ctx *bohrium.Context, n, sweeps int) (float64, error) {
	grid := ctx.Zeros(n, n)
	grid.MustSlice(0, 0, 1, 1).AddC(100) // hot north edge

	interior := func(r0, r1, c0, c1 int) *bohrium.Array {
		return grid.MustSlice(0, r0, r1, 1).MustSlice(1, c0, c1, 1)
	}
	center := interior(1, n-1, 1, n-1)
	north := interior(0, n-2, 1, n-1)
	south := interior(2, n, 1, n-1)
	west := interior(1, n-1, 0, n-2)
	east := interior(1, n-1, 2, n)

	for i := 0; i < sweeps; i++ {
		next := center.Plus(north)
		next.Add(south).Add(west).Add(east).MulC(0.2)
		center.Assign(next)
		next.Free() // dead once written back: the nest keeps it in row scratch
	}
	return grid.At(4, n/2)
}
