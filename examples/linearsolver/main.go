// Linear solver: the paper's equation (2).
//
// Solving A·x = B by explicitly inverting A (x = A⁻¹·B) is wasteful when
// the inverse is used for nothing else. The algebraic optimizer detects
// the INVERSE→MATMUL byte-code pair, checks that A⁻¹ is dead afterwards,
// and rewrites it into a single LU-factorized BH_SOLVE — "usually faster
// to compute" (paper §2). When the program *does* reuse A⁻¹, the liveness
// gate keeps the explicit inverse.
//
//	go run ./examples/linearsolver
package main

import (
	"fmt"
	"log"
	"time"

	"bohrium"
)

const m = 384

func main() {
	fmt.Printf("solve A·x = B, A is %dx%d\n\n", m, m)

	// Variant 1: x = A⁻¹·B, inverse discarded → rewrite fires.
	ctx := bohrium.NewContext(nil)
	a, b := system(ctx, m)
	start := time.Now()
	x := a.Inverse().MatMul(b)
	x0, err := x.At(0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("x = A⁻¹·B (inverse discarded)  %10v   x[0]=%.6f   rewrites: %v\n",
		time.Since(start).Round(time.Millisecond), x0, ctx.LastReport().Applied["inverse-to-solve"])
	ctx.Close()

	// Variant 2: the inverse is also summed afterwards → gate blocks.
	ctx2 := bohrium.NewContext(nil)
	a2, b2 := system(ctx2, m)
	start = time.Now()
	inv := a2.Inverse()
	x2 := inv.MatMul(b2)
	checksum := inv.Sum()
	x20, err := x2.At(0, 0)
	if err != nil {
		log.Fatal(err)
	}
	cs, err := checksum.Scalar()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("x = A⁻¹·B (inverse reused)     %10v   x[0]=%.6f   rewrites: %v   ΣA⁻¹=%.4f\n",
		time.Since(start).Round(time.Millisecond), x20, ctx2.LastReport().Applied["inverse-to-solve"], cs)
	ctx2.Close()

	// Variant 3: calling Solve directly (what the rewrite produces).
	ctx3 := bohrium.NewContext(nil)
	a3, b3 := system(ctx3, m)
	start = time.Now()
	x3 := a3.Solve(b3)
	x30, err := x3.At(0, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("x = solve(A, B) directly       %10v   x[0]=%.6f\n",
		time.Since(start).Round(time.Millisecond), x30)
	ctx3.Close()

	fmt.Println("\nall three x[0] values agree; the first and third run one LU solve,")
	fmt.Println("the second pays for the full inverse because the program reuses it.")
}

// system builds a deterministic diagonally dominant n×n system.
func system(ctx *bohrium.Context, n int) (*bohrium.Array, *bohrium.Array) {
	a := ctx.Random(3, n, n)
	a.MulC(2).SubC(1)
	// Boost the diagonal via a strided 1-d view over the flat buffer.
	flat, err := a.Reshape(n * n)
	if err != nil {
		log.Fatal(err)
	}
	d := flat.MustSlice(0, 0, n*n, n+1)
	d.AddC(float64(n))
	b := ctx.Random(5, n, 1)
	return a, b
}
