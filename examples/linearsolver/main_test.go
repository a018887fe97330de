package main

import (
	"math"
	"testing"

	"bohrium"
)

// TestSolveVariants smoke-tests the example's core computation at a
// reduced size: x = A⁻¹·B (rewritten to BH_SOLVE) and x = solve(A, B)
// must agree, and the solution must actually satisfy A·x = B.
func TestSolveVariants(t *testing.T) {
	const n = 32
	for name, cfg := range map[string]*bohrium.Config{
		"default": nil,
		"async":   {Async: true},
	} {
		t.Run(name, func(t *testing.T) {
			ctx := bohrium.NewContext(cfg)
			defer ctx.Close()
			a, b := system(ctx, n)
			a.Keep()
			b.Keep()
			x := a.Inverse().MatMul(b)
			x.Keep()

			// Residual ‖A·x − B‖∞ over a well-conditioned diagonally
			// dominant system must be at solver precision.
			ax := a.MatMul(x)
			diff := ax.Minus(b)
			worst, err := diff.Abs().Max().Scalar()
			if err != nil {
				t.Fatal(err)
			}
			if worst > 1e-9 {
				t.Errorf("residual %v, want <= 1e-9", worst)
			}

			// Direct solve agrees with the rewritten inverse route.
			ctx2 := bohrium.NewContext(cfg)
			defer ctx2.Close()
			a2, b2 := system(ctx2, n)
			x2 := a2.Solve(b2)
			d1, err := x.Data()
			if err != nil {
				t.Fatal(err)
			}
			d2, err := x2.Data()
			if err != nil {
				t.Fatal(err)
			}
			for i := range d1 {
				if math.Abs(d1[i]-d2[i]) > 1e-9 {
					t.Fatalf("x[%d]: inverse route %v != solve %v", i, d1[i], d2[i])
				}
			}
		})
	}
}
