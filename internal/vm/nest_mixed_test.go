package vm

import (
	"fmt"
	"math"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// mixed decodes the stream into a program of the elementwise steps the
// accessor interpreter ran before the nest took them over: rank 1-2
// iteration shapes (a row longer than fusedBlockSize now and then);
// BH_RANGE and BH_RANDOM into any of the six dtypes; promoted unary and
// binary steps — operands of other dtypes than the result, float
// comparisons into bool among them, a constant in either position, an add
// or multiply now and then continued in place as a chain would be — and
// casts; all through contiguous, strided, reversed and (inputs) broadcast
// windows, and closed now and then by a reduction epilogue over axis 0 or
// the last axis, the temporaries freed now and then. It also draws, now
// and then, a result through a stride-0 window (a generator's, or one that
// reads its own register), a misaligned self-overlap window, the same
// through a second register bound to the first one's buffer — alone, or
// fused with a plain step after it and the steps before it — and an input
// bound to a buffer of another dtype than declared, read through a cast.
func (g *nestGen) mixed() genProgram {
	rank := 1 + g.n(2)
	shape := make(tensor.Shape, rank)
	for d := range shape {
		shape[d] = 1 + g.n(5)
	}
	if g.n(6) == 0 {
		shape[0], shape[rank-1] = min(shape[0], 2), fusedBlockSize+1+g.n(300)
	}
	base := make(tensor.Shape, rank)
	for d := range base {
		base[d] = 2*shape[d] + 2
	}
	baseStrides := tensor.ContiguousStrides(base)

	p := bytecode.NewProgram()
	gp := genProgram{prog: p, inputs: map[bytecode.RegID]tensor.Tensor{}, shared: map[bytecode.RegID]bytecode.RegID{}}
	type reg struct {
		id bytecode.RegID
		dt tensor.DType
	}
	var live, temps []reg // registers a step may read; the ones steps wrote
	input := func(declared, bound tensor.DType) bytecode.RegID {
		r := p.NewReg(declared, base.Size())
		p.MarkInput(r)
		t := tensor.MustNew(bound, base)
		seed := uint64(r)*7919 + uint64(g.n(256))
		for i := 0; i < t.Buf.Len(); i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			v := float64(int64(seed>>59)) - 8 // [-8, 24)
			switch {
			case bound == tensor.Bool:
				v = float64(seed >> 63)
			case bound == tensor.Uint8:
				v = float64(seed >> 58)
			case bound.IsFloat() && i%23 == 7:
				v = []float64{math.NaN(), math.Inf(1), -300.5, 1e10}[seed>>62]
			case bound.IsFloat():
				v += float64(seed>>40&3) * 0.25
			}
			t.Buf.Set(i, v)
		}
		gp.inputs[r] = t
		return r
	}
	// window cuts the iteration shape out of a register's base: per axis
	// contiguous, every second element, reversed, or (not a result)
	// broadcast; with zero, the first axis of more than one element steps 0.
	window := func(result, zero bool) tensor.View {
		v := tensor.View{Shape: shape.Clone(), Strides: make([]int, rank)}
		for d, ext := range shape {
			mode := g.n(4)
			if !result && g.n(5) == 0 {
				mode = 4
			}
			step := [...]int{1, 1, 2, -1, 0}[mode]
			if zero && ext > 1 {
				step, zero = 0, false
			}
			span := (ext - 1) * max(step, -step)
			start := g.n(base[d] - span)
			if step < 0 {
				start += span
			}
			v.Offset += start * baseStrides[d]
			v.Strides[d] = step * baseStrides[d]
		}
		return v
	}
	dtype := func() tensor.DType { return nestDTypes[g.n(len(nestDTypes))] }
	for range 2 {
		dt := dtype()
		live = append(live, reg{input(dt, dt), dt})
	}
	operand := func(dt tensor.DType) bytecode.Operand {
		if g.n(4) == 0 {
			return bytecode.Const(bytecode.ConstOf(dt, []float64{0, 1, 2, 0.5, -3, 255, 1.5}[g.n(7)]))
		}
		r := live[g.n(len(live))]
		return bytecode.Reg(r.id, window(false, false))
	}
	generator := func(out bytecode.Operand) {
		in := bytecode.Instruction{Op: bytecode.OpRange, Out: out}
		if g.n(2) == 0 {
			in = bytecode.Instruction{Op: bytecode.OpRandom, Out: out,
				In1: bytecode.Const(bytecode.ConstInt(int64(g.n(100)))), In2: bytecode.Const(bytecode.ConstInt(int64(g.n(1000))))}
		}
		p.Emit(in)
	}

	unary := []bytecode.Opcode{bytecode.OpIdentity, bytecode.OpIdentity, bytecode.OpNegative, bytecode.OpAbsolute,
		bytecode.OpSqrt, bytecode.OpTanh, bytecode.OpSign, bytecode.OpFloor, bytecode.OpLogicalNot}
	binary := []bytecode.Opcode{bytecode.OpAdd, bytecode.OpSubtract, bytecode.OpMultiply, bytecode.OpDivide,
		bytecode.OpMaximum, bytecode.OpMinimum, bytecode.OpPower, bytecode.OpMod, bytecode.OpArctan2,
		bytecode.OpLess, bytecode.OpGreaterEqual, bytecode.OpEqual, bytecode.OpLogicalAnd}
	var last bytecode.Operand // the result of the last step an epilogue may close: none after another kind
	for n := 1 + g.n(6); n > 0; n-- {
		last = bytecode.Operand{}
		switch kind := g.n(12); {
		case kind == 9: // a result through a stride-0 window: a generator's, or a step reading its own register
			r := live[g.n(len(live))]
			z := bytecode.Reg(r.id, window(true, true))
			if g.n(2) == 0 {
				generator(z)
			} else {
				p.EmitBinary(bytecode.OpAdd, z, z, operand(r.dt))
			}
		case kind == 10: // a misaligned self-overlap, static or through a second register bound to the first's buffer
			r := live[g.n(2)] // an input
			w := window(true, false)
			shifted := w
			if lo, hi, _ := w.MinMaxIndex(); hi+1 < base.Size() {
				shifted.Offset++
			} else if lo > 0 {
				shifted.Offset--
			}
			out, alias := r.id, g.n(4)
			if alias%2 == 0 {
				out = p.NewReg(r.dt, base.Size())
				p.MarkInput(out)
				gp.shared[out] = r.id
				if alias == 2 { // a nest of its own, else one fused with the steps around it
					p.EmitSync(bytecode.Reg(r.id, tensor.NewView(base)))
				}
			}
			p.EmitBinary(binary[g.n(9)], bytecode.Reg(out, w), bytecode.Reg(r.id, shifted), operand(r.dt))
			if alias == 0 {
				p.EmitBinary(bytecode.OpMultiply, bytecode.Reg(out, w), bytecode.Reg(out, w), bytecode.Const(bytecode.ConstOf(r.dt, 1)))
			}
			if out != r.id {
				p.EmitSync(bytecode.Reg(out, tensor.NewView(base)))
			}
		case kind == 11: // an input bound to a buffer of another dtype than declared, read through a cast
			declared, bound, dt := dtype(), dtype(), dtype()
			if declared == bound || declared == dt {
				continue
			}
			dst := p.NewReg(dt, base.Size())
			p.EmitIdentity(bytecode.Reg(dst, window(true, false)), bytecode.Reg(input(declared, bound), window(false, false)))
			live, temps = append(live, reg{dst, dt}), append(temps, reg{dst, dt})
		default:
			dt := dtype()
			op := binary[g.n(len(binary))]
			if kind >= 3 && kind < 6 {
				op = unary[g.n(len(unary))]
			}
			if op.Info().Bool {
				dt = tensor.Bool
			}
			dst := p.NewReg(dt, base.Size())
			last = bytecode.Reg(dst, window(true, false))
			switch {
			case kind < 3:
				generator(last)
			case kind < 6:
				p.EmitUnary(op, last, operand(dtype()))
			default:
				p.EmitBinary(op, last, operand(dtype()), operand(dtype()))
				if (op == bytecode.OpAdd || op == bytecode.OpMultiply) && g.n(3) == 0 {
					p.EmitBinary(op, last, last, operand(dtype())) // a chain's shape, over promoted operands
				}
			}
			live, temps = append(live, reg{dst, dt}), append(temps, reg{dst, dt})
		}
	}
	var out bytecode.Operand
	if last.IsReg() && g.n(2) == 0 {
		// A reduction epilogue over axis 0 or the last one.
		axis := (rank - 1) * g.n(2)
		lines := append(shape[:axis:axis], shape[axis+1:]...)
		if len(lines) == 0 {
			lines = tensor.MustShape(1)
		}
		op := []bytecode.Opcode{bytecode.OpAddReduce, bytecode.OpMaximumReduce, bytecode.OpArgminReduce, bytecode.OpLogicalOrReduce}[g.n(4)]
		odt := dtype()
		switch {
		case op.Info().Bool:
			odt = tensor.Bool
		case op.ArgReduce():
			odt = tensor.Int64
		}
		out = bytecode.Reg(p.NewReg(odt, lines.Size()), tensor.NewView(lines))
		p.EmitReduce(op, out, last, axis)
	}
	if g.n(3) == 0 {
		for _, r := range temps {
			p.EmitFree(bytecode.Reg(r.id, tensor.NewView(base)))
		}
	} else if len(temps) > 0 {
		p.EmitSync(bytecode.Reg(temps[len(temps)-1].id, tensor.NewView(base)))
	}
	if out.IsReg() {
		p.EmitSync(out)
	}
	return gp
}

// mixedKinds tallies, over the fused plans of programs nestGen.mixed
// drew, the kinds of step it exists to draw.
type mixedKinds struct{ generators, promoted, serial, snapshots, otherDType, epilogues, sharedFused int }

func (mk *mixedKinds) add(t *testing.T, gp genProgram) {
	t.Helper()
	m := New(Config{Fusion: true})
	defer m.Close()
	pl, err := m.Compile(gp.prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, ns := range pl.clusters {
		for _, st := range ns.steps {
			in := &gp.prog.Instrs[st.index]
			_, promoted := st.code.(interface{ promotes() })
			mk.generators += btoi(generates(in.Op))
			mk.promoted += btoi(promoted)
			mk.snapshots += btoi(!ns.fused && readsMisaligned(in))
			_, shared := gp.shared[in.Out.Reg]
			mk.sharedFused += btoi(ns.fused && shared)
		}
		mk.serial += btoi(ns.serial)
		mk.epilogues += btoi(ns.fused && ns.line > 0)
	}
	for r, in := range gp.inputs {
		if ri, _ := gp.prog.Reg(r); ri.DType != in.DType() {
			mk.otherDType++
		}
	}
}

// readsMisaligned reports whether one of in's inputs reads its result
// register through another overlapping window.
func readsMisaligned(in *bytecode.Instruction) bool {
	for _, o := range [2]*bytecode.Operand{&in.In1, &in.In2} {
		if o.IsReg() && o.Reg == in.Out.Reg && misaligned(o, in.Out.View) {
			return true
		}
	}
	return false
}

func (*promotedStep[D, C]) promotes() {}

// TestPromotedStepsMatchAccessor pins every promoted step's conversions
// against the accessor interpreter: each unary and binary op over every
// ordered pair of input and result dtypes — float comparisons into bool,
// int32 ⊕ float64, float32 ⊕ float64, bool and uint8 among them — with
// the second input a register of the other dtype or a constant in either
// position, over values that stress the conversions (NaN, ±Inf, −0,
// fractions, magnitudes out of range of the narrow types), read through
// strided windows, in a cluster with a BH_RANDOM and alone.
func TestPromotedStepsMatchAccessor(t *testing.T) {
	special := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, -2.75, 127, 255, 256, -129, 300.7,
		math.MaxInt32 + 1, 1 << 40, 1e19, math.Inf(1), math.Inf(-1), math.NaN(), 16777217}
	const n = 2 * 19
	ops := []bytecode.Opcode{bytecode.OpAdd, bytecode.OpMultiply, bytecode.OpDivide, bytecode.OpMod,
		bytecode.OpLess, bytecode.OpEqual, bytecode.OpArctan2, bytecode.OpNegative, bytecode.OpSqrt, bytecode.OpLogicalNot}
	forms := [][2]string{{"registers", "a0 [0:%[1]d:2] a1 [1:%[6]d:2]"}, {"constant-second", "a0 [0:%[1]d:2] 2.5"}, {"constant-first", "-3 a0 [0:%[1]d:2]"}}
	for _, from := range nestDTypes {
		for _, to := range nestDTypes {
			for _, op := range ops {
				if op.Info().Bool && to != tensor.Bool || from == to {
					continue
				}
				args := forms
				if op.Info().Kind == bytecode.KindUnary {
					args = [][2]string{{"unary", "a0 [0:%[1]d:2]"}}
				}
				for _, arg := range args {
					src := fmt.Sprintf(".reg a0 %[2]v %[1]d\n.reg a1 float64 %[6]d\n.reg a2 %[3]v %[1]d\n.reg a3 %[3]v %[1]d\n.in a0\n.in a1\n"+
						"BH_RANDOM a3 [0:%[4]d:1] 3 0\n%[5]v a2 [0:%[4]d:1] "+arg[1]+"\nBH_SYNC a2\nBH_SYNC a3\n", n, from, to, n/2, op, n+1)
					gp := genProgram{prog: bytecode.MustParse(src), inputs: map[bytecode.RegID]tensor.Tensor{}}
					for r, dt := range []tensor.DType{from, tensor.Float64} {
						in := tensor.MustNew(dt, tensor.MustShape(n+r))
						for i := range n + r {
							if v := special[(i+5*r)%len(special)]; dt.IsFloat() {
								in.Buf.Set(i, v)
							} else if v == v && math.Abs(v) < 1e18 {
								in.Buf.SetInt(i, int64(v))
							}
						}
						gp.inputs[bytecode.RegID(r)] = in
					}
					t.Run(fmt.Sprintf("%v/%v→%v/%s", op, from, to, arg[0]), func(t *testing.T) {
						checkNestDifferential(t, gp)
					})
				}
			}
		}
	}
}

// TestMonteCarloPiExecuteAllocs: the Monte Carlo π batch — two BH_RANDOMs,
// their squares summed, a float comparison into bool (a promoted step),
// the cast back to float64 and the sum — runs as one sweep whose last step
// folds, every temporary virtual, and executing its cached plan at Workers
// 1 allocates nothing once the frame is sized.
func TestMonteCarloPiExecuteAllocs(t *testing.T) {
	const n = 1 << 16
	p := bytecode.MustParse(montecarloPi(n))
	m := New(Config{Fusion: true, Workers: 1})
	defer m.Close()
	pl, err := m.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	exec := func() {
		if err := pl.Execute(m, nil); err != nil {
			t.Fatal(err)
		}
	}
	exec() // size the frame
	if st := m.Stats(); st.Sweeps != 1 || st.FusedReductions != 1 || st.BuffersAllocated != 1 {
		t.Errorf("%d sweeps, %d fused reductions, %d buffers; want 1, 1 and 1", st.Sweeps, st.FusedReductions, st.BuffersAllocated)
	}
	if allocs := testing.AllocsPerRun(20, exec); allocs != 0 {
		t.Errorf("executing the cached plan makes %v allocations per run, want 0", allocs)
	}
	if got := 4 * m.regs.get(6).Get(0) / n; math.Abs(got-math.Pi) > 0.05 {
		t.Errorf("π ≈ %v", got)
	}
}

// montecarloPi is the Monte Carlo π batch over n points as the front end
// records it (bench.MonteCarloPi), its temporaries freed: a6 holds the
// count of points inside the unit circle.
func montecarloPi(n int) string {
	return fmt.Sprintf(`
.reg a0 float64 %[1]d
.reg a1 float64 %[1]d
.reg a2 float64 %[1]d
.reg a3 float64 %[1]d
.reg a4 bool %[1]d
.reg a5 float64 %[1]d
.reg a6 float64 1
BH_RANDOM a0 [0:%[1]d:1] 7 0
BH_RANDOM a1 [0:%[1]d:1] 8 0
BH_MULTIPLY a2 [0:%[1]d:1] a0 [0:%[1]d:1] a0 [0:%[1]d:1]
BH_MULTIPLY a3 [0:%[1]d:1] a1 [0:%[1]d:1] a1 [0:%[1]d:1]
BH_ADD a2 [0:%[1]d:1] a2 [0:%[1]d:1] a3 [0:%[1]d:1]
BH_LESS a4 [0:%[1]d:1] a2 [0:%[1]d:1] 1
BH_IDENTITY a5 [0:%[1]d:1] a4 [0:%[1]d:1]
BH_ADD_REDUCE a6 [0:1:1] a5 [0:%[1]d:1] axis=0
BH_FREE a0
BH_FREE a1
BH_FREE a2
BH_FREE a3
BH_FREE a4
BH_FREE a5
BH_SYNC a6
`, n)
}

// TestNestBoundOtherDType: a register bound to a buffer of another dtype
// than declared keeps the outcome it had when the accessor interpreter ran
// each generator, cast and promoted step alone. Under such a binding every
// nest runs its instructions one at a time, each compiled for the bound
// dtypes, so it equals the unfused run — a cluster of plain steps too.
func TestNestBoundOtherDType(t *testing.T) {
	const decl = `
.reg a0 float64 64
.reg a1 float64 64
.reg a2 float64 64
.in a2
`
	for _, tc := range []struct {
		name, src string
		reg       bytecode.RegID // bound to a buffer of dtype bound
		bound     tensor.DType
	}{
		{"generator", decl + ".in a0\nBH_RANDOM a0 5 0\nBH_ADD a1 a0 a2\nBH_SYNC a1\n", 0, tensor.Float32},
		{"cast", decl + ".reg a3 int32 64\nBH_IDENTITY a3 a2\nBH_MULTIPLY a1 a2 3\nBH_SYNC a3\nBH_SYNC a1\n", 2, tensor.Int32},
		{"promoted", decl + ".reg a3 bool 64\nBH_LESS a3 a2 0.5\nBH_ADD a1 a2 1\nBH_SYNC a3\nBH_SYNC a1\n", 2, tensor.Float32},
		{"absorbed plain steps", decl + "BH_RANDOM a0 5 0\nBH_ADD a1 a0 a2\nBH_MULTIPLY a1 a1 a2\nBH_SYNC a1\n", 2, tensor.Float32},
		{"plain cluster", decl + "BH_ADD a1 a2 a2\nBH_MULTIPLY a1 a1 a2\nBH_SYNC a1\n", 2, tensor.Float32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := bytecode.MustParse(tc.src)
			gp := genProgram{prog: p, inputs: map[bytecode.RegID]tensor.Tensor{}}
			for _, r := range p.Inputs {
				dt := p.Regs[r].DType
				if r == tc.reg {
					dt = tc.bound
				}
				in := tensor.MustNew(dt, tensor.MustShape(64))
				in.FillRandom(uint64(r)+9, -1, 1)
				gp.inputs[r] = in
			}
			checkNestDifferential(t, gp)
		})
	}
}

// TestNestAliasedRegistersUnfuse: two registers of a fused cluster of plain
// steps bound to one buffer, the add reading one element behind the
// elements it writes, run as the unfused plan does — the add reads a
// snapshot — not as one sweep that reads what it has just written.
func TestNestAliasedRegistersUnfuse(t *testing.T) {
	p := bytecode.MustParse(`
.reg a0 float64 16
.reg a1 float64 16
.in a0
.in a1
BH_ADD a1 [1:16:1] a0 [0:15:1] 0
BH_MULTIPLY a1 [1:16:1] a1 [1:16:1] 1
BH_SYNC a1
`)
	in := tensor.MustNew(tensor.Float64, tensor.MustShape(16))
	for i := range 16 {
		in.Buf.Set(i, float64(i))
	}
	gp := genProgram{prog: p, inputs: map[bytecode.RegID]tensor.Tensor{0: in}, shared: map[bytecode.RegID]bytecode.RegID{1: 0}}
	checkNestDifferential(t, gp)
	m := nestRun(t, gp, Config{Fusion: true}, false)
	if pl, err := m.Compile(p); err != nil || !pl.clusters[0].fused {
		t.Fatalf("the two steps do not share a cluster (%v)", err)
	}
	for i := range 16 { // [0 0 1 … 14]
		if got, want := m.regs.get(1).Get(i), float64(max(i-1, 0)); got != want {
			t.Fatalf("a1[%d] = %v, want %v", i, got, want)
		}
	}
}

// TestNestRedeclaredRegister: a batch that declares a register with another
// dtype than the buffer an earlier batch left in it — as a bhd session may —
// runs its fused cluster as the unfused plan runs it, each instruction
// compiled for the bound dtypes, and equals the reference.
func TestNestRedeclaredRegister(t *testing.T) {
	batches := []*bytecode.Program{
		bytecode.MustParse(".reg a0 float64 16\nBH_RANGE a0\nBH_SYNC a0\n"),
		bytecode.MustParse(".reg a0 int32 16\n.reg a1 int32 16\n.in a0\nBH_ADD a1 a0 a0\nBH_MULTIPLY a1 a1 a0\nBH_SYNC a1\n"),
	}
	session := func(cfg Config, interpreter bool) *Machine {
		m := New(cfg)
		t.Cleanup(m.Close)
		for _, p := range batches {
			var err error
			if interpreter {
				m.regs.grow(len(p.Regs))
				err = m.refInterpret(p, 0, len(p.Instrs), p.Constants())
			} else {
				err = m.Run(p.Clone())
			}
			if err != nil {
				t.Fatalf("%+v (interpreter=%v): %v\n%s", cfg, interpreter, err, p)
			}
		}
		return m
	}
	want := session(Config{}, true)
	for i := range 16 {
		if got := want.regs.get(1).GetInt(i); got != int64(2*i*i) {
			t.Fatalf("reference a1[%d] = %d, want %d", i, got, 2*i*i)
		}
	}
	for _, fusion := range []bool{false, true} {
		sameRegisters(t, fmt.Sprintf("fusion=%v", fusion), batches[1], want, session(Config{Fusion: fusion}, false))
	}
}

// TestNestLaggedGeneratorAndPromotedClose: a generator or a promoted step
// may be the closing write a nest stores lagged — here into the window one
// element ahead of the reads of a float64 grid, from a float32 temporary —
// and matches the reference at every worker count.
func TestNestLaggedGeneratorAndPromotedClose(t *testing.T) {
	for _, closing := range []string{
		"BH_RANDOM a1 [1:9999:1] 5 7",
		"BH_RANGE a1 [1:9999:1]",
		"BH_IDENTITY a1 [1:9999:1] a0 [0:9998:1]",
		"BH_ADD a1 [1:9999:1] a0 [0:9998:1] 1",
	} {
		t.Run(closing, func(t *testing.T) {
			p := bytecode.MustParse(`
.reg a0 float32 9998
.reg a1 float64 10000
.in a1
BH_ADD a0 [0:9998:1] a1 [0:9998:1] a1 [2:10000:1]
BH_MULTIPLY a0 [0:9998:1] a0 [0:9998:1] 0.5
` + closing + `
BH_FREE a0
BH_SYNC a1
`)
			in := tensor.MustNew(tensor.Float64, tensor.MustShape(10000))
			in.FillRandom(3, -1, 1)
			checkNestDifferential(t, genProgram{prog: p, inputs: map[bytecode.RegID]tensor.Tensor{1: in}})
			m := New(Config{Fusion: true})
			defer m.Close()
			if pl, err := m.Compile(p); err != nil || pl.clusters[0].lag == nil || pl.clusters[0].end != 3 {
				t.Errorf("the closing write is not stored lagged (%v)", err)
			}
		})
	}
}
