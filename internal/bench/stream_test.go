package bench

import (
	"math"
	"testing"

	"bohrium"
)

// The stream workloads below flush one batch per iteration — the shape
// an interactive client produces — and take the per-iteration
// synchronization as a step function: ctx.Flush executes each batch
// before the next records, ctx.Submit hands it to the async executor and
// keeps recording. Each iteration frees its temporaries, so steady-state
// batches are structurally identical and replay a cached plan.

// heat2DStream runs iters Jacobi sweeps on an n×n grid whose top row is
// held at 100 and returns the value at row 2, column n/2.
func heat2DStream(ctx *bohrium.Context, n, iters int, step func() error) (float64, error) {
	grid := ctx.Zeros(n, n)
	grid.MustSlice(0, 0, 1, 1).AddC(100)
	center := grid.MustSlice(0, 1, n-1, 1).MustSlice(1, 1, n-1, 1)
	north := grid.MustSlice(0, 0, n-2, 1).MustSlice(1, 1, n-1, 1)
	south := grid.MustSlice(0, 2, n, 1).MustSlice(1, 1, n-1, 1)
	west := grid.MustSlice(0, 1, n-1, 1).MustSlice(1, 0, n-2, 1)
	east := grid.MustSlice(0, 1, n-1, 1).MustSlice(1, 2, n, 1)
	for it := 0; it < iters; it++ {
		next := center.Plus(north)
		next.Add(south).Add(west).Add(east).MulC(0.2)
		center.Assign(next)
		next.Free()
		if err := step(); err != nil {
			return 0, err
		}
	}
	return grid.At(2, n/2)
}

// powerAccumStream raises a kept base to the 10th power, folds it to a
// scalar and adds that into a kept accumulator, once per iteration; no
// per-iteration read forces a wait. It returns the mean of the sums.
func powerAccumStream(ctx *bohrium.Context, n, iters int, step func() error) (float64, error) {
	x := ctx.Full(1.0000001, n)
	acc := ctx.Zeros(1)
	for it := 0; it < iters; it++ {
		p := x.Power(10)
		s := p.Sum()
		acc.Add(s)
		p.Free()
		s.Free()
		if err := step(); err != nil {
			return 0, err
		}
	}
	v, err := acc.At(0)
	if err != nil {
		return 0, err
	}
	return v / float64(iters), nil
}

// jacobi1DStream solves -d²u/dx² = 1 on n points by Jacobi iteration, one
// batch per sweep, and returns the midpoint value.
func jacobi1DStream(ctx *bohrium.Context, n, iters int, step func() error) (float64, error) {
	u := ctx.Zeros(n)
	h := 1.0 / float64(n-1)
	f := ctx.Full(h*h, n)
	uc := u.MustSlice(0, 1, n-1, 1)
	ul := u.MustSlice(0, 0, n-2, 1)
	ur := u.MustSlice(0, 2, n, 1)
	fc := f.MustSlice(0, 1, n-1, 1)
	for it := 0; it < iters; it++ {
		t := ul.Plus(ur)
		t.Add(fc).MulC(0.5)
		uc.Assign(t)
		t.Free()
		if err := step(); err != nil {
			return 0, err
		}
	}
	return u.At(n / 2)
}

// TestStreamWorkloadsCachedEqualsUncached is the plan-cache differential
// sweep: every stream must produce bit-for-bit the same result with the
// cache enabled and disabled. Run under -race, it also exercises the
// cached execution paths for data races.
func TestStreamWorkloadsCachedEqualsUncached(t *testing.T) {
	workloads := []struct {
		name string
		run  func(*bohrium.Context) (float64, error)
	}{
		{"heat-2d-stream", func(c *bohrium.Context) (float64, error) { return heat2DStream(c, 24, 30, c.Flush) }},
		{"power-stream", func(c *bohrium.Context) (float64, error) { return powerAccumStream(c, 512, 30, c.Flush) }},
		{"jacobi-1d-stream", func(c *bohrium.Context) (float64, error) { return jacobi1DStream(c, 512, 30, c.Flush) }},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			off := bohrium.NewContext(&bohrium.Config{PlanCacheSize: -1})
			defer off.Close()
			want, err := w.run(off)
			if err != nil {
				t.Fatal(err)
			}
			on := bohrium.NewContext(nil)
			defer on.Close()
			got, err := w.run(on)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("cached %v != uncached %v", got, want)
			}
			st := on.MustStats()
			if st.PlanHits == 0 {
				t.Errorf("cached run never hit the plan cache (misses=%d)", st.PlanMisses)
			}
			if stOff := off.MustStats(); stOff.PlanHits != 0 || stOff.PlanMisses != 0 {
				t.Errorf("uncached run touched the plan cache: %+v", stOff)
			}
		})
	}
}

// TestStreamWorkloadsAsyncEqualsSync is the pipelining differential
// sweep: every stream must produce bit-for-bit the same result submitted
// through the async executor as flushed synchronously, and the async run
// must actually pipeline. Run under -race, it exercises the
// recorder/executor split.
func TestStreamWorkloadsAsyncEqualsSync(t *testing.T) {
	workloads := []struct {
		name string
		run  func(*bohrium.Context, func() error) (float64, error)
	}{
		{"heat-2d-stream", func(c *bohrium.Context, step func() error) (float64, error) {
			return heat2DStream(c, 24, 30, step)
		}},
		{"power-accum-stream", func(c *bohrium.Context, step func() error) (float64, error) {
			return powerAccumStream(c, 512, 30, step)
		}},
		{"jacobi-1d-stream", func(c *bohrium.Context, step func() error) (float64, error) {
			return jacobi1DStream(c, 512, 30, step)
		}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			sync := bohrium.NewContext(nil)
			defer sync.Close()
			want, err := w.run(sync, sync.Flush)
			if err != nil {
				t.Fatal(err)
			}
			async := bohrium.NewContext(&bohrium.Config{Async: true})
			defer async.Close()
			got, err := w.run(async, async.Submit)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("async %v != sync %v", got, want)
			}
			if st := async.MustStats(); st.Pipelined == 0 {
				t.Error("async run executed nothing on the background executor")
			}
			if sSt := sync.MustStats(); sSt.Pipelined != 0 {
				t.Errorf("sync run pipelined %d plans", sSt.Pipelined)
			}
		})
	}
}
