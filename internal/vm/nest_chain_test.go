package vm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Where a chain input comes from.
const (
	inContig    = iota // a dense window of an input register
	inStrided          // every second column: gathered
	inReversed         // columns in reverse: gathered
	inBroadcast        // one column per row, stride 0: gathered
	inVirtual          // a temporary the cluster computes and frees
	inSelf             // t itself, through t's own view
	inOtherView        // t through a reversed view: t cannot stay virtual
	inKinds
)

// chainSpec is one left-deep chain program: t = x0 ⊕ x1; t = t ⊕ x2; …;
// optionally t = t ⊗ c; out = t (or out = fold(t) along the rows); BH_FREE
// t (unless keep); BH_SYNC out.
type chainSpec struct {
	dt         tensor.DType
	op         bytecode.Opcode
	in         []int           // kind of each input x0, x1, ...
	mid        int             // > 1: a constant step t = t ⊕ 2 right before input mid
	tail       bytecode.Opcode // the trailing constant step's op; 0: none
	c          float64         // its constant
	rows, cols int
	keep       bool            // t stays live after the batch: materialized
	fold       bytecode.Opcode // a reduction of t along axis 1 into out; 0: out = t
	inDT       tensor.DType    // the input registers' dtype; 0: dt
}

// program builds the spec over two input registers of (rows+2)×(2·cols+2)
// elements. A self input in the head reads t's previous value, which a
// BH_IDENTITY defines first.
func (s chainSpec) program() genProgram {
	shape := tensor.MustShape(s.rows, s.cols)
	base := tensor.MustShape(s.rows+2, 2*s.cols+2)
	p := bytecode.NewProgram()
	gp := genProgram{prog: p, inputs: map[bytecode.RegID]tensor.Tensor{}}
	tv := tensor.NewView(shape)
	t := bytecode.Reg(p.NewReg(s.dt, shape.Size()), tv)
	out := bytecode.Reg(p.NewReg(s.dt, shape.Size()), tv)
	if s.fold != 0 {
		odt := s.dt
		if s.fold.ArgReduce() {
			odt = tensor.Int64
		}
		out = bytecode.Reg(p.NewReg(odt, s.rows), tensor.NewView(tensor.MustShape(s.rows)))
	}
	var xs [2]bytecode.RegID
	if s.inDT == 0 {
		s.inDT = s.dt
	}
	for i := range xs {
		xs[i] = p.NewReg(s.inDT, base.Size())
		p.MarkInput(xs[i])
		in := tensor.MustNew(s.inDT, base)
		seed := uint64(31 + i)
		for e := 0; e < in.Buf.Len(); e++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			v := float64(int64(seed>>60)) - 4 // [-4, 12)
			switch {
			case s.inDT == tensor.Bool || s.inDT == tensor.Uint8:
				v = float64(seed >> 61)
			case s.inDT.IsFloat():
				v += float64(float64(seed>>11) / (1 << 53)) // a full significand, so reassociating rounds differently; converted, so no multiply-add
			}
			in.Buf.Set(e, v)
		}
		gp.inputs[xs[i]] = in
	}
	full := tensor.NewView(base)
	window := func(j, kind int) tensor.View {
		r0, c0 := j%3, j%3
		v, _ := full.Slice(0, r0, r0+s.rows, 1)
		switch kind {
		case inStrided:
			v, _ = v.Slice(1, c0, c0+2*s.cols-1, 2)
		case inReversed:
			v, _ = v.Slice(1, c0+s.cols-1, c0-1, -1)
		case inBroadcast:
			v, _ = v.Slice(1, c0, c0+s.cols, 1)
			v.Strides[1] = 0
		default:
			v, _ = v.Slice(1, c0, c0+s.cols, 1)
		}
		return v
	}
	var u bytecode.Operand
	if slices.Contains(s.in, inVirtual) {
		u = bytecode.Reg(p.NewReg(s.dt, shape.Size()), tv)
		p.EmitBinary(bytecode.OpSubtract, u, bytecode.Reg(xs[0], window(1, inContig)), bytecode.Reg(xs[1], window(2, inContig)))
	}
	if s.in[0] == inSelf || s.in[1] == inSelf {
		p.EmitIdentity(t, bytecode.Reg(xs[1], window(0, inContig)))
	}
	input := func(j int) bytecode.Operand {
		switch kind := s.in[j]; kind {
		case inVirtual:
			return u
		case inSelf:
			return t
		case inOtherView:
			v, _ := tv.Slice(1, s.cols-1, -1, -1)
			return bytecode.Reg(t.Reg, v)
		default:
			return bytecode.Reg(xs[j%2], window(j, kind))
		}
	}
	p.EmitBinary(s.op, t, input(0), input(1))
	for j := 2; j < len(s.in); j++ {
		if j == s.mid {
			p.EmitBinary(s.op, t, t, bytecode.Const(bytecode.ConstOf(s.dt, 2)))
		}
		p.EmitBinary(s.op, t, t, input(j))
	}
	if s.tail != 0 {
		p.EmitBinary(s.tail, t, t, bytecode.Const(bytecode.ConstOf(s.dt, s.c)))
	}
	if s.fold != 0 {
		p.EmitReduce(s.fold, out, t, 1)
	} else {
		p.EmitIdentity(out, t)
	}
	if !s.keep {
		p.EmitFree(t)
	}
	if u.IsReg() {
		p.EmitFree(u)
	}
	p.EmitSync(out)
	return gp
}

// chainTails are the trailing constant steps the generator draws: every
// native op, division (never folded), and constants a float32 holds
// exactly or not, a negative zero and a NaN.
var (
	chainTails  = []bytecode.Opcode{0, 0, bytecode.OpAdd, bytecode.OpSubtract, bytecode.OpMultiply, bytecode.OpDivide}
	chainConsts = []float64{0.2, 2, 0.5, -3, 0.1, math.Copysign(0, -1), 0, math.NaN()}
)

// chain decodes the stream into a chainSpec program: 2-9 inputs of any
// kind, add or multiply, any of the six dtypes, with or without a constant
// tail, sometimes a constant mid-chain, a materialized accumulator or a row
// longer than fusedBlockSize.
func (g *nestGen) chain() genProgram {
	s := chainSpec{
		dt:   nestDTypes[g.n(len(nestDTypes))],
		op:   [2]bytecode.Opcode{bytecode.OpAdd, bytecode.OpMultiply}[g.n(2)],
		in:   make([]int, 2+g.n(8)),
		rows: 1 + g.n(4),
		cols: 1 + g.n(9),
	}
	for j := range s.in {
		s.in[j] = g.n(inKinds)
		if j < 2 && s.in[j] == inOtherView {
			s.in[j] = inContig // t has no value yet
		}
	}
	s.tail, s.c = chainTails[g.n(len(chainTails))], chainConsts[g.n(len(chainConsts))]
	if g.n(4) == 0 {
		s.mid = 2 + g.n(len(s.in))
	}
	s.keep = g.n(6) == 0
	if g.n(6) == 0 {
		s.rows, s.cols = 1+g.n(2), fusedBlockSize+1+g.n(300)
	}
	return s.program()
}

func TestNestChainDifferentialGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	n := 300
	if testing.Short() {
		n = 60
	}
	for i := 0; i < n; i++ {
		data := make([]byte, 64)
		rng.Read(data)
		checkNestDifferential(t, (&nestGen{data: data}).chain())
	}
}

// TestNestChainRule pins which shapes contract, into which chain steps,
// and that the sweep around them does not change.
func TestNestChainRule(t *testing.T) {
	f64, add, mul := tensor.Float64, bytecode.OpAdd, bytecode.OpMultiply
	contig := func(k int) []int { return make([]int, k) }
	spec := func(dt tensor.DType, op bytecode.Opcode, in []int, tail bytecode.Opcode, c float64) chainSpec {
		return chainSpec{dt: dt, op: op, in: in, tail: tail, c: c, rows: 3, cols: 7}
	}
	type ruleCase struct {
		name                   string
		s                      chainSpec
		chains                 string // chainShapes
		sweeps, fused, chained int
	}
	cases := []ruleCase{
		{"five-point stencil", spec(f64, add, contig(5), mul, 0.2), "5*", 1, 6, 5},
		{"float32 add, exact constant", spec(tensor.Float32, add, contig(3), add, 0.5), "3*", 1, 4, 3},
		{"float32 add, constant no float32 holds", spec(tensor.Float32, add, contig(3), mul, 0.1), "3/", 1, 4, 3},
		{"int64 multiply, subtract tail", spec(tensor.Int64, mul, contig(4), bytecode.OpSubtract, 3), "4*", 1, 5, 4},
		{"int32 add, negative-zero constant", spec(tensor.Int32, add, contig(3), add, math.Copysign(0, -1)), "3*", 1, 4, 3},
		{"float64 add, negative-zero constant", spec(f64, add, contig(3), add, math.Copysign(0, -1)), "3*", 1, 4, 3},
		{"float64 subtract tail", spec(f64, mul, contig(2), bytecode.OpSubtract, 0.1), "2*", 1, 3, 2},
		{"uint8 multiply past chainWidth, no tail", spec(tensor.Uint8, mul, contig(6), 0, 0), "5", 1, 6, 4},
		{"bool declines", spec(tensor.Bool, add, contig(5), 0, 0), "", 1, 5, 0},
		{"one step alone is no chain", spec(f64, add, contig(2), 0, 0), "", 1, 2, 0},
		{"one step and a tail", spec(f64, mul, contig(2), add, 1), "2*", 1, 3, 2},
		{"division tail: a pass of its own", spec(f64, add, contig(4), bytecode.OpDivide, 5), "4/", 1, 5, 4},
		{"int32 division tail", spec(tensor.Int32, add, contig(3), bytecode.OpDivide, 0), "3/", 1, 4, 3},
		{"NaN tail: a pass of its own", spec(f64, add, contig(3), add, math.NaN()), "3/", 1, 4, 3},
		{"nine inputs: two chain steps", spec(f64, mul, contig(9), mul, 0.5), "5 5*", 1, 10, 9},
		{"gathered inputs: strided, reversed, broadcast", spec(f64, add, []int{inStrided, inReversed, inContig, inBroadcast, inStrided}, 0, 0), "5", 1, 5, 4},
		{"virtual inputs", spec(tensor.Float32, add, []int{inContig, inVirtual, inVirtual, inContig}, 0, 0), "4", 1, 5, 3},
		{"t = t ⊕ t heads a chain", spec(f64, add, []int{inContig, inContig, inSelf, inContig, inSelf, inContig}, mul, 3), "3 3*", 1, 7, 5},
		{"t in the head reads its earlier value", spec(tensor.Int32, add, []int{inSelf, inContig, inContig}, 0, 0), "3", 1, 4, 2},
	}
	{
		s := spec(f64, add, contig(6), 0, 0)
		s.mid = 4
		cases = append(cases, ruleCase{"a mid-chain constant closes the chain", s, "4* 3", 1, 7, 6})
	}
	{
		s := spec(f64, add, contig(5), mul, 0.2)
		s.keep = true
		cases = append(cases, ruleCase{"materialized accumulator declines", s, "", 1, 6, 0})
	}
	{
		s := spec(f64, add, []int{inContig, inContig, inContig, inOtherView, inContig}, 0, 0)
		cases = append(cases, ruleCase{"t read through another view declines", s, "", 3, 4, 0})
	}
	{
		s := spec(tensor.Int32, add, []int{inContig, inStrided, inReversed}, mul, 3)
		s.rows, s.cols = 2, fusedBlockSize+37
		cases = append(cases, ruleCase{"rows longer than a block", s, "3*", 1, 4, 3})
	}
	{
		s := spec(tensor.Float32, add, contig(5), mul, 0.2)
		s.inDT = f64
		cases = append(cases, ruleCase{"inputs of another dtype decline", s, "", 1, 6, 0})
		s.in = []int{inVirtual, inVirtual, inContig, inContig}
		cases = append(cases, ruleCase{"an input of another dtype ends the chain", s, "", 1, 6, 0})
	}
	// Chains ending in a fold: the reduction closes the same nest.
	folded := func(s chainSpec, fold bytecode.Opcode) chainSpec {
		s.fold = fold
		return s
	}
	power := []int{inContig, inContig, inSelf, inContig, inSelf} // x^10 as the optimizer expands it, then a sum
	cases = append(cases,
		ruleCase{"expanded power into a sum", folded(spec(f64, mul, power, 0, 0), bytecode.OpAddReduce), "3", 1, 5, 2},
		ruleCase{"five-point chain into a sum", folded(spec(f64, add, contig(5), mul, 0.2), bytecode.OpAddReduce), "5*", 1, 6, 5},
		ruleCase{"int32 chain into a max", folded(spec(tensor.Int32, add, contig(3), 0, 0), bytecode.OpMaximumReduce), "3", 1, 3, 2},
		ruleCase{"float32 chain into an argmin", folded(spec(tensor.Float32, mul, contig(3), add, 1), bytecode.OpArgminReduce), "3*", 1, 4, 3},
	)
	{
		s := folded(spec(f64, add, contig(5), mul, 0.2), bytecode.OpAddReduce)
		s.keep = true
		cases = append(cases, ruleCase{"materialized accumulator into a sum", s, "", 1, 6, 0})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gp := tc.s.program()
			checkNestDifferential(t, gp)
			m := nestRun(t, gp, Config{Fusion: true, Workers: 1}, false)
			if st := m.Stats(); st.Sweeps != tc.sweeps || st.FusedInstructions != tc.fused || st.ChainedInstructions != tc.chained {
				t.Errorf("ran as %d sweeps, %d fused and %d chained instructions; want %d, %d and %d\n%s",
					st.Sweeps, st.FusedInstructions, st.ChainedInstructions, tc.sweeps, tc.fused, tc.chained, gp.prog)
			}
			pl, err := m.Compile(gp.prog)
			if err != nil {
				t.Fatal(err)
			}
			if got := chainShapes(pl); got != tc.chains {
				t.Errorf("chain steps %q, want %q\n%s", got, tc.chains, gp.prog)
			}
		})
	}
}

// chainShapes lists pl's chain steps in program order: each one's input
// count, then, when it ends in a constant step, "*" if a run under the
// plan's own vector folds that step into its loop, or "/" if the step runs
// as a pass of its own.
func chainShapes(pl *Plan) string {
	var out []string
	for k := range pl.clusters {
		ns := &pl.clusters[k]
		for i := 0; i < len(ns.steps); i++ {
			if st := &ns.steps[i]; st.width > 1 {
				shape := fmt.Sprint(reflect.ValueOf(st.code).Elem().FieldByName("in").Len())
				switch tail := &pl.prog.Instrs[st.index+st.width-1]; {
				case !tail.In2.IsConst():
				case tailFolds(tail, st.ops[0].dtype):
					shape += "*"
				default:
					shape += "/"
				}
				out = append(out, shape)
			}
		}
	}
	return strings.Join(out, " ")
}

// tailFolds reports whether chainTail folds the constant step in of a
// chain of dtype dt.
func tailFolds(in *bytecode.Instruction, dt tensor.DType) (ok bool) {
	c := scalar{in.In2.Const.Float(), in.In2.Const.Int()}
	switch dt {
	case tensor.Float64:
		_, _, ok = chainTail[float64](in.Op, c)
	case tensor.Float32:
		_, _, ok = chainTail[float32](in.Op, c)
	case tensor.Int64:
		_, _, ok = chainTail[int64](in.Op, c)
	case tensor.Int32:
		_, _, ok = chainTail[int32](in.Op, c)
	default:
		_, _, ok = chainTail[uint8](in.Op, c)
	}
	return ok
}

// unchained recompiles every nest of pl with its chains split back into
// one step per instruction, on the same layout: the per-step form a chain
// replaces.
func unchained(pl *Plan) {
	for i := range pl.clusters {
		ns := &pl.clusters[i]
		if ns.chained == 0 {
			continue
		}
		ns.steps, ns.chained = slices.Clone(ns.steps), 0
		for k := range ns.steps {
			ns.steps[k].width = 1
		}
		ns.attach(pl.prog, &kernelSlabs{})
	}
}

// BenchmarkNestChain times chains of k ∈ {3, 5, 9} windows of a grid with
// 1 022-element rows, per dtype, contracted and as one step per
// instruction, and the 1-D Jacobi batch of the benchmark's dispatch-small
// workload (a 2 046-element row: binding k inputs must not cost more than
// the pass it saves).
func BenchmarkNestChain(b *testing.B) {
	run := func(b *testing.B, gp genProgram, chain bool) {
		m := New(Config{Fusion: true})
		defer m.Close()
		for r, in := range gp.inputs {
			m.Bind(r, cloneTensor(in))
		}
		pl, err := m.Compile(gp.prog)
		if err != nil {
			b.Fatal(err)
		}
		if !chain {
			unchained(pl)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := pl.Execute(m, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got, want := m.Stats().ChainedInstructions > 0, chain; got != want {
			b.Fatalf("chained instructions ran: %v, want %v", got, want)
		}
	}
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32, tensor.Int32} {
		for _, k := range []int{3, 5, 9} {
			s := chainSpec{dt: dt, op: bytecode.OpAdd, in: make([]int, k), tail: bytecode.OpMultiply, c: 2, rows: 64, cols: 1022}
			gp := s.program()
			for _, chain := range []bool{true, false} {
				b.Run(fmt.Sprintf("%v/k=%d/chain=%v", dt, k, chain), func(b *testing.B) {
					b.SetBytes(int64((k + 1) * s.rows * s.cols * dt.Size()))
					run(b, gp, chain)
				})
			}
		}
	}
	gp := jacobiBatch(2048)
	for _, chain := range []bool{true, false} {
		b.Run(fmt.Sprintf("jacobi-2046/chain=%v", chain), func(b *testing.B) { run(b, gp, chain) })
	}
}

// jacobiBatch is dispatch-small's 1-D Jacobi sweep over n points: t = u[:-2]
// + u[2:]; t += f[1:-1]; t *= 0.5; u[1:-1] = t; BH_FREE t.
func jacobiBatch(n int) genProgram {
	p := bytecode.NewProgram()
	u, f := p.NewReg(tensor.Float64, n), p.NewReg(tensor.Float64, n)
	p.MarkInput(u)
	p.MarkInput(f)
	full := tensor.NewView(tensor.MustShape(n))
	win := func(r bytecode.RegID, from int) bytecode.Operand {
		v, _ := full.Slice(0, from, from+n-2, 1)
		return bytecode.Reg(r, v)
	}
	t := bytecode.Reg(p.NewReg(tensor.Float64, n-2), tensor.NewView(tensor.MustShape(n-2)))
	p.EmitBinary(bytecode.OpAdd, t, win(u, 0), win(u, 2))
	p.EmitBinary(bytecode.OpAdd, t, t, win(f, 1))
	p.EmitBinary(bytecode.OpMultiply, t, t, bytecode.Const(bytecode.ConstFloat(0.5)))
	p.EmitIdentity(win(u, 1), t)
	p.EmitFree(t)
	p.EmitSync(bytecode.Reg(u, full))
	gp := genProgram{prog: p, inputs: map[bytecode.RegID]tensor.Tensor{}}
	for i, r := range []bytecode.RegID{u, f} {
		in := tensor.MustNew(tensor.Float64, tensor.MustShape(n))
		in.FillRandom(uint64(7+i), 0, 1)
		gp.inputs[r] = in
	}
	return gp
}
