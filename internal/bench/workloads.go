// Package bench reproduces the paper's evaluation tables, experiments
// E1–E7 (ARCHITECTURE.md §6): workload generators for every
// listing/equation/claim in the paper plus the scientific kernels
// Bohrium's own evaluations use (heat diffusion, Black-Scholes, Leibniz π,
// Monte-Carlo π), and a harness that times each baseline/optimized pair
// as the median of repeated runs with its median absolute deviation.
package bench

import (
	"math"

	"bohrium"
	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// AddMergeProgram builds the paper's Listing 2 generalized to k repeated
// "a += 1" byte-codes over an n-element vector of the given dtype
// (experiment E1).
func AddMergeProgram(k, n int, dt tensor.DType) *bytecode.Program {
	p := bytecode.NewProgram()
	a0 := p.NewReg(dt, n)
	v := tensor.NewView(tensor.MustShape(n))
	p.EmitIdentity(bytecode.Reg(a0, v), bytecode.Const(bytecode.ConstOf(dt, 0)))
	for i := 0; i < k; i++ {
		p.EmitBinary(bytecode.OpAdd, bytecode.Reg(a0, v), bytecode.Reg(a0, v),
			bytecode.Const(bytecode.ConstOf(dt, 1)))
	}
	p.EmitSync(bytecode.Reg(a0, v))
	return p
}

// AddMergeNoisyProgram interleaves each "a += 1" with an unrelated
// byte-code on a second register — the stream shape real front-ends emit,
// used by the D1 gap-tolerance ablation (E6).
func AddMergeNoisyProgram(k, n int, dt tensor.DType) *bytecode.Program {
	p := bytecode.NewProgram()
	a0 := p.NewReg(dt, n)
	a1 := p.NewReg(dt, n)
	v := tensor.NewView(tensor.MustShape(n))
	p.EmitIdentity(bytecode.Reg(a0, v), bytecode.Const(bytecode.ConstOf(dt, 0)))
	p.EmitIdentity(bytecode.Reg(a1, v), bytecode.Const(bytecode.ConstOf(dt, 5)))
	for i := 0; i < k; i++ {
		p.EmitBinary(bytecode.OpAdd, bytecode.Reg(a0, v), bytecode.Reg(a0, v),
			bytecode.Const(bytecode.ConstOf(dt, 1)))
		p.EmitBinary(bytecode.OpMultiply, bytecode.Reg(a1, v), bytecode.Reg(a1, v),
			bytecode.Reg(a1, v))
	}
	p.EmitSync(bytecode.Reg(a0, v))
	p.EmitSync(bytecode.Reg(a1, v))
	return p
}

// PowerProgram builds "a1 = a0 ^ exp; sync" over n elements (experiments
// E2/E3). The optimizer decides whether BH_POWER survives.
func PowerProgram(exp int64, n int) *bytecode.Program {
	p := bytecode.NewProgram()
	a0 := p.NewReg(tensor.Float64, n)
	a1 := p.NewReg(tensor.Float64, n)
	v := tensor.NewView(tensor.MustShape(n))
	p.EmitIdentity(bytecode.Reg(a0, v), bytecode.Const(bytecode.ConstFloat(1.0000001)))
	p.EmitBinary(bytecode.OpPower, bytecode.Reg(a1, v), bytecode.Reg(a0, v),
		bytecode.Const(bytecode.ConstInt(exp)))
	p.EmitSync(bytecode.Reg(a1, v))
	return p
}

// SolveProgram builds the equation (2) byte-code: x = A⁻¹·B for an m×m
// system (experiment E4). Registers a0 (A) and a2 (B) are inputs the
// harness binds to deterministic well-conditioned data.
func SolveProgram(m int) *bytecode.Program {
	p := bytecode.NewProgram()
	a := p.NewReg(tensor.Float64, m*m)
	inv := p.NewReg(tensor.Float64, m*m)
	b := p.NewReg(tensor.Float64, m)
	x := p.NewReg(tensor.Float64, m)
	vm2 := tensor.NewView(tensor.MustShape(m, m))
	vcol := tensor.NewView(tensor.MustShape(m, 1))
	vvec := tensor.NewView(tensor.MustShape(m))
	p.MarkInput(a)
	p.MarkInput(b)
	p.EmitUnary(bytecode.OpInverse, bytecode.Reg(inv, vm2), bytecode.Reg(a, vm2))
	p.EmitBinary(bytecode.OpMatmul, bytecode.Reg(x, vcol), bytecode.Reg(inv, vm2), bytecode.Reg(b, vcol))
	p.EmitSync(bytecode.Reg(x, vvec))
	return p
}

// BlackScholesProgram builds a byte-code-level Black-Scholes pricing
// kernel over n options of the given float dtype, ending in a mean-price
// reduction (experiment E7). Every register shares one dtype, so the
// whole elementwise chain fuses into a single sweep and the final
// BH_ADD_REDUCE rides along as a reduction epilogue; all temporaries are
// freed, so the fused run materializes nothing but the inputs and the
// scalar result. Prices use spot in [80, 120), strike 100, r=2%,
// sigma=30%, T=1, with the normal CDF via the tanh approximation
// Φ(x) ≈ ½(1 + tanh(√(2/π)(x + 0.044715x³))).
func BlackScholesProgram(dt tensor.DType, n int) *bytecode.Program {
	p := bytecode.NewProgram()
	v := tensor.NewView(tensor.MustShape(n))
	v1 := tensor.NewView(tensor.MustShape(1))
	s := p.NewReg(dt, n)   // spot, then s·Φ(d1), then the price
	d1 := p.NewReg(dt, n)  // d1, then Φ(d1)
	d2 := p.NewReg(dt, n)  // d2, then Φ(d2), then the discounted put leg
	tmp := p.NewReg(dt, n) // CDF scratch
	out := p.NewReg(dt, 1)
	reg := func(r bytecode.RegID) bytecode.Operand { return bytecode.Reg(r, v) }
	c := func(x float64) bytecode.Operand { return bytecode.Const(bytecode.ConstFloat(x)) }
	bin := p.EmitBinary
	un := p.EmitUnary

	const r0, sigma = 0.02, 0.3
	p.Emit(bytecode.Instruction{Op: bytecode.OpRandom, Out: reg(s),
		In1: bytecode.Const(bytecode.ConstInt(101)), In2: bytecode.Const(bytecode.ConstInt(0))})
	bin(bytecode.OpMultiply, reg(s), reg(s), c(40)) // spot in [80, 120)
	bin(bytecode.OpAdd, reg(s), reg(s), c(80))

	// d1 = (log(S/K) + r + sigma²/2) / sigma  (T = 1), d2 = d1 - sigma.
	bin(bytecode.OpDivide, reg(d1), reg(s), c(100))
	un(bytecode.OpLog, reg(d1), reg(d1))
	bin(bytecode.OpAdd, reg(d1), reg(d1), c(r0+sigma*sigma/2))
	bin(bytecode.OpDivide, reg(d1), reg(d1), c(sigma))
	bin(bytecode.OpSubtract, reg(d2), reg(d1), c(sigma))

	// cnd rewrites x in place to Φ(x) using tmp as scratch.
	cnd := func(x bytecode.RegID) {
		bin(bytecode.OpMultiply, reg(tmp), reg(x), reg(x))
		bin(bytecode.OpMultiply, reg(tmp), reg(tmp), reg(x))
		bin(bytecode.OpMultiply, reg(tmp), reg(tmp), c(0.044715))
		bin(bytecode.OpAdd, reg(tmp), reg(tmp), reg(x))
		bin(bytecode.OpMultiply, reg(tmp), reg(tmp), c(math.Sqrt(2/math.Pi)))
		un(bytecode.OpTanh, reg(x), reg(tmp))
		bin(bytecode.OpAdd, reg(x), reg(x), c(1))
		bin(bytecode.OpMultiply, reg(x), reg(x), c(0.5))
	}
	cnd(d1)
	cnd(d2)

	// price = S·Φ(d1) - K·e^{-r}·Φ(d2), then the mean over all options.
	bin(bytecode.OpMultiply, reg(s), reg(s), reg(d1))
	bin(bytecode.OpMultiply, reg(d2), reg(d2), c(100*math.Exp(-r0)))
	bin(bytecode.OpSubtract, reg(s), reg(s), reg(d2))
	p.EmitReduce(bytecode.OpAddReduce, bytecode.Reg(out, v1), reg(s), 0)
	bin(bytecode.OpDivide, bytecode.Reg(out, v1), bytecode.Reg(out, v1), c(float64(n)))
	for _, r := range []bytecode.RegID{s, d1, d2, tmp} {
		p.EmitFree(reg(r))
	}
	p.EmitSync(bytecode.Reg(out, v1))
	return p
}

// ChecksumProgram builds an integer hash-and-fold workload of the given
// integer dtype (experiment E7): t = ((x·31+7) mod m)·x wrapped in the
// dtype, folded with BH_ADD_REDUCE. Integer folds are associative, so the
// fused epilogue is bit-equal to unfused execution at any worker
// count.
func ChecksumProgram(dt tensor.DType, n int) *bytecode.Program {
	p := bytecode.NewProgram()
	v := tensor.NewView(tensor.MustShape(n))
	v1 := tensor.NewView(tensor.MustShape(1))
	x := p.NewReg(dt, n)
	t := p.NewReg(dt, n)
	out := p.NewReg(dt, 1)
	reg := func(r bytecode.RegID) bytecode.Operand { return bytecode.Reg(r, v) }
	ci := func(k int64) bytecode.Operand { return bytecode.Const(bytecode.ConstInt(k)) }

	p.Emit(bytecode.Instruction{Op: bytecode.OpRandom, Out: reg(x), In1: ci(211), In2: ci(0)})
	p.EmitBinary(bytecode.OpMod, reg(x), reg(x), ci(1_000_003))
	p.EmitBinary(bytecode.OpMultiply, reg(t), reg(x), ci(31))
	p.EmitBinary(bytecode.OpAdd, reg(t), reg(t), ci(7))
	p.EmitBinary(bytecode.OpMod, reg(t), reg(t), ci(65_521))
	p.EmitBinary(bytecode.OpMultiply, reg(t), reg(t), reg(x))
	p.EmitReduce(bytecode.OpAddReduce, bytecode.Reg(out, v1), reg(t), 0)
	p.EmitFree(reg(t))
	p.EmitFree(reg(x))
	p.EmitSync(bytecode.Reg(out, v1))
	return p
}

// Front-end workloads (E5): the scientific kernels Bohrium's publications
// evaluate with, expressed against the public API so the whole pipeline
// (recording → optimization → fused VM) is measured.

// Heat2D runs iters Jacobi sweeps of the 2-D heat equation on an n×n grid
// and returns the temperature at a probe near the hot boundary (heat needs
// ~n² sweeps to reach the center). The stencil is pure view arithmetic —
// the workload the CINEMA imaging project motivates.
func Heat2D(ctx *bohrium.Context, n, iters int) (float64, error) {
	grid := ctx.Zeros(n, n)
	// Hot northern boundary.
	top := grid.MustSlice(0, 0, 1, 1)
	top.AddC(100)

	center := grid.MustSlice(0, 1, n-1, 1).MustSlice(1, 1, n-1, 1)
	north := grid.MustSlice(0, 0, n-2, 1).MustSlice(1, 1, n-1, 1)
	south := grid.MustSlice(0, 2, n, 1).MustSlice(1, 1, n-1, 1)
	west := grid.MustSlice(0, 1, n-1, 1).MustSlice(1, 0, n-2, 1)
	east := grid.MustSlice(0, 1, n-1, 1).MustSlice(1, 2, n, 1)

	for it := 0; it < iters; it++ {
		next := center.Plus(north)
		next.Add(south).Add(west).Add(east).MulC(0.2)
		center.Assign(next)
		// Each iteration's scratch grid dies here; freeing it lets the
		// VM's register pool recycle one buffer per sweep instead of
		// allocating iters of them.
		next.Free()
	}
	return grid.At(2, n/2)
}

// BlackScholes prices N call options with the classic Black-Scholes
// formula (normal CDF via the tanh approximation) and returns the mean
// price.
func BlackScholes(ctx *bohrium.Context, n int) (float64, error) {
	s := ctx.Random(101, n)
	s.MulC(40).AddC(80) // spot in [80, 120)
	k := ctx.Full(100, n)
	tte := ctx.Full(1.0, n) // one year
	const r, sigma = 0.02, 0.3

	sqrtT := tte.Copy().Sqrt()
	d1 := s.Over(k).Log()
	d1.AddC(r + sigma*sigma/2) // T = 1
	d1.Div(sqrtT.TimesC(sigma))
	d2 := d1.Copy().SubC(sigma) // d1 - sigma*sqrt(T)

	price := s.Times(cnd(d1))
	discount := math.Exp(-r)
	price.Sub(k.TimesC(discount).Mul(cnd(d2)))
	return price.Mean().Scalar()
}

// cnd approximates the standard normal CDF:
// Φ(x) ≈ ½(1 + tanh(√(2/π)(x + 0.044715x³))).
func cnd(x *bohrium.Array) *bohrium.Array {
	x3 := x.Power(3).MulC(0.044715)
	inner := x.Plus(x3).MulC(math.Sqrt(2 / math.Pi))
	return inner.Tanh().AddC(1).MulC(0.5)
}

// LeibnizPi sums n terms of the Leibniz series 4·Σ(-1)ⁱ/(2i+1).
func LeibnizPi(ctx *bohrium.Context, n int) (float64, error) {
	i := ctx.Arange(n)
	sign := i.Copy().ModC(2).MulC(-2).AddC(1) // +1, -1, +1, ...
	denom := i.MulC(2).AddC(1)                // in place: 2i+1
	return sign.Over(denom).Sum().MulC(4).Scalar()
}

// MonteCarloPi estimates π from n uniform points in the unit square.
func MonteCarloPi(ctx *bohrium.Context, n int) (float64, error) {
	x := ctx.Random(7, n)
	y := ctx.Random(8, n)
	r2 := x.Times(x).Add(y.Times(y))
	inside := r2.LessC(1).AsType(tensor.Float64)
	return inside.Sum().MulC(4).DivC(float64(n)).Scalar()
}
