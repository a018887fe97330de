package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"bohrium"
	"bohrium/benchmark/ref"
	"bohrium/benchmark/span"
	"bohrium/internal/tensor"
)

// The in-process workloads drive a default bohrium.Context the way an
// application does: recording calls, one Flush (or a value read) per
// batch, results checked against package ref.

// inproc is what the in-process sessions share: the context, the inputs
// bound with FromSlice (in binding order, for the layer replay), and the
// counters read.
type inproc struct {
	ctx    *bohrium.Context
	inputs []tensor.Tensor
}

// bind hands seeded input data to the context and remembers a copy in
// tensor form, so the layer replay can bind the same values to the same
// registers on a backend of its own.
func (p *inproc) bind(values []float64, dims ...int) (*bohrium.Array, error) {
	a, err := p.ctx.FromSlice(values, dims...)
	if err != nil {
		return nil, err
	}
	t, err := tensor.FromFloat64s(values, tensor.MustShape(dims...))
	if err != nil {
		return nil, err
	}
	p.inputs = append(p.inputs, t)
	return a, nil
}

func (p *inproc) counters() (counters, error) {
	st, err := p.ctx.Stats()
	if err != nil {
		return counters{}, err
	}
	return counters{
		sweeps: st.Sweeps, elements: st.Elements,
		fusedInstructions: st.FusedInstructions, fusedReductions: st.FusedReductions,
		planHits: st.PlanHits, planMisses: st.PlanMisses, planEvictions: st.PlanEvictions,
		buffersAlloc: st.BuffersAllocated, bytesAlloc: st.BytesAllocated, poolHits: st.PoolHits,
	}, nil
}

func (p *inproc) close() { p.ctx.Close() }

// recorder is an in-process session seen by the layer replay: record
// writes batch i into the context's pending program without flushing and
// returns the arrays a caller would observe.
type recorder interface {
	record(i int) []*bohrium.Array
	context() *inproc
}

func (p *inproc) context() *inproc { return p }

// flushed runs the record → flush steps every Flush-per-batch workload
// shares, with their spans.
func (p *inproc) flushed(tr *span.Recorder, record func()) error {
	tr.Begin("batch")
	tr.Begin("record")
	record()
	tr.End()
	tr.Begin("flush")
	err := p.ctx.Flush()
	tr.End()
	tr.End()
	return err
}

func uniform(rng *rand.Rand, n int, lo, hi float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = lo + (hi-lo)*rng.Float64()
	}
	return v
}

// stencil-sweep: one Jacobi sweep of a 2-D heat stencil per batch.

type stencil struct {
	inproc
	n                                int
	initial                          []float64
	grid                             *bohrium.Array
	center, north, south, west, east *bohrium.Array
}

func openStencil(seed int64, sz sizes, _ *environment) (session, error) {
	n := sz.stencilN
	s := &stencil{inproc: inproc{ctx: bohrium.NewContext(nil)}, n: n}
	s.initial = uniform(rand.New(rand.NewSource(seed)), n*n, 0, 100)
	grid, err := s.bind(s.initial, n, n)
	if err != nil {
		s.close()
		return nil, err
	}
	interior := func(r0, r1, c0, c1 int) *bohrium.Array {
		return grid.MustSlice(0, r0, r1, 1).MustSlice(1, c0, c1, 1)
	}
	s.grid = grid
	s.center = interior(1, n-1, 1, n-1)
	s.north = interior(0, n-2, 1, n-1)
	s.south = interior(2, n, 1, n-1)
	s.west = interior(1, n-1, 0, n-2)
	s.east = interior(1, n-1, 2, n)
	return s, nil
}

func (s *stencil) record(int) []*bohrium.Array {
	next := s.center.Plus(s.north)
	next.Add(s.south).Add(s.west).Add(s.east).MulC(0.2)
	s.center.Assign(next)
	next.Free()
	return []*bohrium.Array{s.grid}
}

func (s *stencil) batch(_ context.Context, _, i int, tr *span.Recorder) error {
	return s.flushed(tr, func() { s.record(i) })
}

// verify replays every sweep in plain Go from the seeded grid; the
// operation order is the recorded one, so the grids must be bit-equal.
func (s *stencil) verify(done []int) error {
	got, err := s.grid.Data()
	if err != nil {
		return err
	}
	want := append([]float64(nil), s.initial...)
	ref.Heat2D(want, s.n, done[0])
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("grid[%d,%d] = %v after %d sweeps, reference %v", i/s.n, i%s.n, got[i], done[0], want[i])
		}
	}
	return nil
}

// fused-chain: Black-Scholes over fusedN options ending in a mean, two
// float64 batches then one float32 batch. The kinds are mixed two to one
// and not one to one because their latencies differ: with equal shares
// the median of the two-mode distribution sits on the gap between the
// modes and flips between them from run to run.

// isFloat32 tells which batches of the fused chain run in float32.
func isFloat32(i int) bool { return i%3 == 2 }

type fused struct {
	inproc
	spot *bohrium.Array
	want float64
	mean *bohrium.Array // previous batch's result, freed by the next
}

func openFused(seed int64, sz sizes, _ *environment) (session, error) {
	f := &fused{inproc: inproc{ctx: bohrium.NewContext(nil)}}
	spot := uniform(rand.New(rand.NewSource(seed)), sz.fusedN, 80, 120)
	f.want = ref.BlackScholesMean(spot)
	var err error
	if f.spot, err = f.bind(spot, sz.fusedN); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// record prices every option and reduces to the mean. Only scalar
// constants enter the chain — a float64 constant array would promote the
// float32 chain — and every temporary is freed inside the batch, which
// both lets the reduction epilogue skip materializing the price vector
// and recycles the register ids so the next batch of the same dtype
// fingerprints identically.
func (f *fused) record(i int) []*bohrium.Array {
	if f.mean != nil {
		f.mean.Free()
	}
	s := f.spot
	var temps []*bohrium.Array
	temp := func(a *bohrium.Array) *bohrium.Array {
		temps = append(temps, a)
		return a
	}
	if isFloat32(i) {
		s = temp(s.AsType(tensor.Float32))
	}
	cnd := func(x *bohrium.Array) *bohrium.Array {
		x3 := temp(x.Power(3)).MulC(0.044715)
		return temp(x.Plus(x3)).MulC(math.Sqrt(2 / math.Pi)).Tanh().AddC(1).MulC(0.5)
	}
	d1 := temp(s.TimesC(1 / ref.Strike)).Log().AddC(ref.Rate + ref.Sigma*ref.Sigma/2).DivC(ref.Sigma)
	d2 := temp(d1.Copy()).SubC(ref.Sigma)
	price := temp(s.Times(cnd(d1)))
	price.Sub(cnd(d2).MulC(ref.Strike * math.Exp(-ref.Rate)))
	sum := temp(price.Sum())
	f.mean = sum.TimesC(1 / float64(price.Size()))
	for _, t := range temps {
		t.Free()
	}
	return []*bohrium.Array{f.mean}
}

func (f *fused) batch(_ context.Context, _, i int, tr *span.Recorder) error {
	tr.Begin("batch")
	tr.Begin("record")
	f.record(i)
	tr.End()
	tr.Begin("read") // the read flushes: there is no separate Flush call
	got, err := f.mean.Scalar()
	tr.End()
	tr.End()
	if err != nil {
		return err
	}
	tol, dtype := 1e-9, "float64"
	if isFloat32(i) {
		tol, dtype = 1e-4, "float32"
	}
	if !ref.Close(got, f.want, tol) {
		return fmt.Errorf("%s mean price %v, reference %v", dtype, got, f.want)
	}
	return nil
}

func (f *fused) verify([]int) error { return nil } // every batch is checked as it completes

// dispatch-small: tiny 1-D Jacobi and power-accumulate batches
// interleaved two to one (for the reason given at fused-chain), one Flush
// each.

// isPower tells which dispatch-small batches are power-accumulate.
func isPower(i int) bool { return i%3 == 1 }

type dispatch struct {
	inproc
	u0, f0, x0    []float64
	u, x, acc     *bohrium.Array
	uc, ul, ur, f *bohrium.Array
}

func openDispatch(seed int64, sz sizes, _ *environment) (session, error) {
	n := sz.dispatchN
	d := &dispatch{inproc: inproc{ctx: bohrium.NewContext(nil)}}
	rng := rand.New(rand.NewSource(seed))
	d.u0 = uniform(rng, n, 0, 1)
	d.f0 = uniform(rng, n, 0, 1e-3)
	d.x0 = uniform(rng, n, 1, 1.00001)
	fail := func(err error) (session, error) {
		d.close()
		return nil, err
	}
	var err error
	if d.u, err = d.bind(d.u0, n); err != nil {
		return fail(err)
	}
	f, err := d.bind(d.f0, n)
	if err != nil {
		return fail(err)
	}
	if d.x, err = d.bind(d.x0, n); err != nil {
		return fail(err)
	}
	if d.acc, err = d.bind([]float64{0}, 1); err != nil {
		return fail(err)
	}
	d.uc = d.u.MustSlice(0, 1, n-1, 1)
	d.ul = d.u.MustSlice(0, 0, n-2, 1)
	d.ur = d.u.MustSlice(0, 2, n, 1)
	d.f = f.MustSlice(0, 1, n-1, 1)
	return d, nil
}

func (d *dispatch) record(i int) []*bohrium.Array {
	if !isPower(i) {
		t := d.ul.Plus(d.ur)
		t.Add(d.f).MulC(0.5)
		d.uc.Assign(t)
		t.Free()
		return []*bohrium.Array{d.u}
	}
	p := d.x.Power(10)
	s := p.Sum()
	d.acc.Add(s)
	p.Free()
	s.Free()
	return []*bohrium.Array{d.acc}
}

func (d *dispatch) batch(_ context.Context, _, i int, tr *span.Recorder) error {
	return d.flushed(tr, func() { d.record(i) })
}

// verify replays the Jacobi sweeps in plain Go (bit-equal: same
// operation order) and compares the accumulator with the closed form
// (count × Σ x¹⁰; the optimizer may expand the power, so to 1e-9).
func (d *dispatch) verify(done []int) error {
	power := (done[0] + 1) / 3 // batches 1, 4, 7, ...
	jacobi := done[0] - power
	got, err := d.u.Data()
	if err != nil {
		return err
	}
	want := append([]float64(nil), d.u0...)
	ref.Jacobi1D(want, d.f0, jacobi)
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("u[%d] = %v after %d sweeps, reference %v", i, got[i], jacobi, want[i])
		}
	}
	acc, err := d.acc.At(0)
	if err != nil {
		return err
	}
	if sum := float64(power) * ref.SumPow(d.x0, 10); !ref.Close(acc, sum, 1e-9) {
		return fmt.Errorf("accumulator %v after %d power batches, reference %v", acc, power, sum)
	}
	return nil
}
