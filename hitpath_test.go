package bohrium_test

import (
	"testing"

	"bohrium"
)

// dispatchSmall is a miniature of the benchmark's dispatch-small stream:
// a 1-D Jacobi batch and a Power(10)→Sum batch over n elements, one Flush
// each. Once warm, every flush is a plan-cache hit, so a flush costs the
// hit path (seal, key, look up, advance) plus a small execution.
// jacobiAlternating is the Jacobi batch with its scale alternating 0.5 /
// 0.25: every hit runs the one cached plan under a vector that is not the
// previous flush's.
type dispatchSmall struct {
	ctx                                 *bohrium.Context
	jacobi, jacobiAlternating, powerSum func() error
}

func newDispatchSmall(tb testing.TB, n int) *dispatchSmall {
	tb.Helper()
	ctx := bohrium.NewContext(nil)
	tb.Cleanup(ctx.Close)
	vals := func(v float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v + float64(i%7)*1e-6
		}
		return s
	}
	u := ctx.MustFromSlice(vals(0.5), n)
	f := ctx.MustFromSlice(vals(1e-4), n).MustSlice(0, 1, n-1, 1)
	x := ctx.MustFromSlice(vals(1), n)
	acc := ctx.MustFromSlice([]float64{0}, 1)
	uc, ul, ur := u.MustSlice(0, 1, n-1, 1), u.MustSlice(0, 0, n-2, 1), u.MustSlice(0, 2, n, 1)
	jacobi := func(c float64) error {
		t := ul.Plus(ur)
		t.Add(f).MulC(c)
		uc.Assign(t)
		t.Free()
		return ctx.Flush()
	}
	scale := 0.5
	return &dispatchSmall{
		ctx:    ctx,
		jacobi: func() error { return jacobi(0.5) },
		jacobiAlternating: func() error {
			scale = 0.75 - scale
			return jacobi(scale)
		},
		powerSum: func() error {
			p := x.Power(10)
			s := p.Sum()
			acc.Add(s)
			p.Free()
			s.Free()
			return ctx.Flush()
		},
	}
}

// TestCachedFlushAllocs pins what a plan-cache hit allocates on a warm
// default Context, for both dispatch-small batch shapes. The bounds sit
// just above what the hit path reaches; a regression in recording, the
// fingerprint, the lookup or the batch advance shows here first. A hit
// under a new constant vector may add only the copy of that vector the
// Resolution owns.
func TestCachedFlushAllocs(t *testing.T) {
	d := newDispatchSmall(t, 2048)
	for _, tc := range []struct {
		name  string
		flush func() error
		max   float64
	}{
		{"jacobi", d.jacobi, 7},
		{"jacobi-alternating", d.jacobiAlternating, 7 + 1},
		{"power-sum", d.powerSum, 7},
	} {
		for range 3 { // warm the plan cache and the reused buffers
			if err := tc.flush(); err != nil {
				t.Fatal(err)
			}
		}
		before := d.ctx.MustStats()
		allocs := testing.AllocsPerRun(50, func() {
			if err := tc.flush(); err != nil {
				t.Fatal(err)
			}
		})
		after := d.ctx.MustStats()
		if after.PlanMisses != before.PlanMisses {
			t.Fatalf("%s: %d plan misses on a warm stream", tc.name, after.PlanMisses-before.PlanMisses)
		}
		t.Logf("%s: %.1f allocations per cached Flush", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("%s: %.1f allocations per cached Flush, want <= %v", tc.name, allocs, tc.max)
		}
	}
}
