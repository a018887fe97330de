// Command genlistings regenerates the committed examples/<name>/listing.bh
// files: each example's core computation re-recorded at a reduced scale
// through the public front end and dumped (Program.Dump) before the first
// flush. The listings make every example runnable at the byte-code level —
// `bhrun examples/<name>/listing.bh` executes the workload with no Go
// bindings — and cmd/bhrun's tests replay them differentially across
// execution modes. Run from the repository root after changing an example
// or the recording front end:
//
//	go run ./cmd/genlistings
//
// cmd/genlistings's own test regenerates the listings in-memory and fails
// when the committed files are stale.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"bohrium"
)

// A listing pairs an example directory with the recording of its core
// computation. The record function must only record — any read (Data, At,
// Scalar) would flush the very byte-code being captured — so observables
// are marked with Sync instead.
type listing struct {
	name    string
	comment string
	record  func(ctx *bohrium.Context)
}

func listings() []listing {
	return []listing{
		{
			name:    "quickstart",
			comment: "Listing 1: three adds over a zero vector; the optimizer merges them.",
			record: func(ctx *bohrium.Context) {
				a := ctx.Zeros(10)
				a.AddC(1)
				a.AddC(1)
				a.AddC(1)
				a.Sync()
			},
		},
		{
			name:    "blackscholes",
			comment: "Black-Scholes call prices over 1024 options (tanh CDF), mean price synced.",
			record: func(ctx *bohrium.Context) {
				const r, sigma, strike = 0.02, 0.3, 100.0
				n := 1024
				spot := ctx.Random(2024, n)
				spot.MulC(40).AddC(80)
				k := ctx.Full(strike, n)
				cnd := func(x *bohrium.Array) *bohrium.Array {
					x3 := x.Power(3).MulC(0.044715)
					return x.Plus(x3).MulC(math.Sqrt(2 / math.Pi)).Tanh().AddC(1).MulC(0.5)
				}
				d1 := spot.Over(k).Log()
				d1.AddC(r + sigma*sigma/2).DivC(sigma)
				d2 := d1.Copy().SubC(sigma)
				price := spot.Times(cnd(d1))
				price.Sub(k.TimesC(math.Exp(-r)).Mul(cnd(d2)))
				price.Mean().Sync()
			},
		},
		{
			name:    "heatdiffusion",
			comment: "Jacobi heat stencil, 16x16 grid with a hot north edge, 10 sweeps, grid synced.",
			record: func(ctx *bohrium.Context) {
				const n, sweeps = 16, 10
				grid := ctx.Zeros(n, n)
				grid.MustSlice(0, 0, 1, 1).AddC(100)
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
					next.Free()
				}
				grid.Sync()
			},
		},
		{
			name:    "linearsolver",
			comment: "24x24 diagonally dominant system: x = inverse(A)*B and x = solve(A, B), both synced.",
			record: func(ctx *bohrium.Context) {
				const n = 24
				a := ctx.Random(3, n, n)
				a.MulC(2).SubC(1)
				flat, err := a.Reshape(n * n)
				if err != nil {
					log.Fatal(err)
				}
				flat.MustSlice(0, 0, n*n, n+1).AddC(float64(n))
				b := ctx.Random(5, n, 1)
				a.Inverse().MatMul(b).Sync()
				a.Solve(b).Sync()
			},
		},
		{
			name:    "powerchains",
			comment: "x^10 over 1024 elements of the base 1.0000001; BH_POWER as recorded (-O expands it).",
			record: func(ctx *bohrium.Context) {
				ctx.Full(1.0000001, 1024).Power(10).Sync()
			},
		},
		{
			name:    "kmeans",
			comment: "k-means assignment step: (3, 96) squared distances, int64 labels via BH_ARGMIN_REDUCE, labels and inertia synced.",
			record: func(ctx *bohrium.Context) {
				const k, n = 3, 96
				centersX := []float64{-2, 0, 3}
				centersY := []float64{1, -2, 2}
				cx := []float64{-0.1, 0, 0.1}
				cy := []float64{0.1, 0, -0.1}
				px := ctx.Zeros(n)
				py := ctx.Zeros(n)
				seg := n / k
				for j := 0; j < k; j++ {
					jx := ctx.Random(uint64(2*j+1), seg)
					jy := ctx.Random(uint64(2*j+2), seg)
					px.MustSlice(0, j*seg, (j+1)*seg, 1).Assign(jx.SubC(0.5).MulC(0.8).AddC(centersX[j]))
					py.MustSlice(0, j*seg, (j+1)*seg, 1).Assign(jy.SubC(0.5).MulC(0.8).AddC(centersY[j]))
				}
				dist := ctx.Zeros(k, n)
				for j := 0; j < k; j++ {
					dx := px.PlusC(-cx[j])
					dy := py.PlusC(-cy[j])
					dist.MustSlice(0, j, j+1, 1).Assign(dx.Times(dx).Plus(dy.Times(dy)))
				}
				dist.ArgminAxis(0).Sync()
				dist.MinAxis(0).Sum().Sync()
			},
		},
		{
			name:    "montecarlo",
			comment: "Monte Carlo call price, 4096 Box-Muller GBM paths, discounted mean payoff synced.",
			record: func(ctx *bohrium.Context) {
				const spot, strike, rate, sigma, expiry = 100.0, 105.0, 0.02, 0.3, 1.0
				n := 4096
				u1 := ctx.Random(7, n)
				u1.MulC(-1).AddC(1)
				u2 := ctx.Random(11, n)
				z := u1.Log().MulC(-2).Sqrt()
				z.Mul(u2.MulC(2 * math.Pi).Cos())
				st := z.MulC(sigma * math.Sqrt(expiry)).AddC((rate - sigma*sigma/2) * expiry).Exp().MulC(spot)
				payoff := st.SubC(strike).Maximum(ctx.Zeros(n))
				payoff.Mean().MulC(math.Exp(-rate * expiry)).Sync()
			},
		},
	}
}

// render records one listing in a fresh context and returns the commented
// dump. The context never flushes, so PendingProgram holds the entire
// recording.
func render(l listing) string {
	ctx := bohrium.NewContext(nil)
	defer ctx.Close()
	l.record(ctx)
	return fmt.Sprintf("# %s/listing.bh — %s\n# generated by `go run ./cmd/genlistings` — do not edit by hand\n%s",
		l.name, l.comment, ctx.PendingProgram().Dump())
}

func main() {
	dir := flag.String("dir", "examples", "examples directory to write the listing.bh files into")
	flag.Parse()
	for _, l := range listings() {
		path := filepath.Join(*dir, l.name, "listing.bh")
		if err := os.WriteFile(path, []byte(render(l)), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}
}
