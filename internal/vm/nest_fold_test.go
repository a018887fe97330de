package vm

import (
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// reduce decodes the stream into an elementwise run closed by a reduction
// — a fold nest: rank 1-3 over any axis; add, multiply, min, max, logical
// and argmin/argmax folds of any of the six dtypes, into an output of
// another dtype now and then; producers over contiguous, strided,
// reversed and broadcast windows, as an add or multiply chain, through a
// square root that makes NaNs, or live (materialized); a reduced axis of
// 1, 33, more than fusedBlockSize or chunkable length, or enough lines
// for split-outputs at a threshold of 4 (up to 40 elements each); and now
// and then an output bound to an input's buffer (the two-sweep fallback).
func (g *nestGen) reduce() genProgram {
	dt := nestDTypes[g.n(len(nestDTypes))]
	rank := 1 + g.n(3)
	axis := g.n(rank)
	shape := make(tensor.Shape, rank)
	for d := range shape {
		shape[d] = 1 + g.n(4)
	}
	switch g.n(8) {
	case 1:
		shape[axis] = 1
	case 2:
		shape[axis] = 33
	case 3:
		shape[axis] = fusedBlockSize + 1 + g.n(300)
	case 4:
		shape[axis] = 2*reduceMinChunk + g.n(200)
	case 5:
		shape[(axis+1)%rank] = reduceSplitMinOutputs + g.n(40)
		shape[axis] = 1 + g.n(40)
	}
	if shape[axis] > fusedBlockSize/2 {
		for d := range shape {
			if d != axis {
				shape[d] = min(shape[d], 2)
			}
		}
	}
	base := make(tensor.Shape, rank)
	for d := range base {
		base[d] = 2*shape[d] + 1
	}
	baseStrides := tensor.ContiguousStrides(base)

	p := bytecode.NewProgram()
	gp := genProgram{prog: p, inputs: map[bytecode.RegID]tensor.Tensor{}}
	var xs [2]bytecode.RegID
	for i := range xs {
		xs[i] = p.NewReg(dt, base.Size())
		p.MarkInput(xs[i])
		in := tensor.MustNew(dt, base)
		seed := uint64(97*i) + uint64(g.n(256))
		for e := 0; e < in.Buf.Len(); e++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			v := float64(int64(seed>>59)) - 8 // [-8, 24)
			switch {
			case dt == tensor.Bool:
				v = float64(seed >> 63)
			case dt == tensor.Uint8:
				v = float64(seed >> 58)
			case dt.IsFloat():
				v += float64(seed>>11) / (1 << 53)
			}
			in.Buf.Set(e, v)
		}
		gp.inputs[xs[i]] = in
	}
	// window cuts the iteration shape out of an input: per axis contiguous,
	// every second element, reversed, or broadcast by stride or extent.
	window := func() bytecode.Operand {
		v := tensor.View{Shape: shape.Clone(), Strides: make([]int, rank)}
		for d, ext := range shape {
			mode := g.n(6)
			step := [...]int{1, 1, 2, -1, 0, 1}[mode]
			if mode == 5 {
				v.Shape[d] = 1
			}
			span := (ext - 1) * max(step, -step)
			start := g.n(base[d] - span)
			if step < 0 {
				start += span
			}
			v.Offset += start * baseStrides[d]
			v.Strides[d] = step * baseStrides[d]
		}
		return bytecode.Reg(xs[g.n(2)], v)
	}
	operand := func() bytecode.Operand {
		if g.n(5) == 0 {
			return bytecode.Const(bytecode.ConstOf(dt, []float64{0.5, 3, -2}[g.n(3)]))
		}
		return window()
	}

	t := bytecode.Reg(p.NewReg(dt, shape.Size()), tensor.NewView(shape))
	if dt != tensor.Bool && g.n(3) == 0 {
		op := [2]bytecode.Opcode{bytecode.OpAdd, bytecode.OpMultiply}[g.n(2)]
		p.EmitBinary(op, t, window(), window())
		for k := 1 + g.n(6); k > 0; k-- {
			p.EmitBinary(op, t, t, window())
		}
		if g.n(2) == 0 {
			p.EmitBinary(bytecode.OpMultiply, t, t, bytecode.Const(bytecode.ConstOf(dt, 0.5)))
		}
	} else {
		unary := []bytecode.Opcode{bytecode.OpIdentity, bytecode.OpNegative, bytecode.OpAbsolute, bytecode.OpSign}
		if dt.IsFloat() {
			unary = append(unary, bytecode.OpSqrt, bytecode.OpSqrt)
		}
		binary := []bytecode.Opcode{bytecode.OpAdd, bytecode.OpSubtract, bytecode.OpMultiply,
			bytecode.OpMaximum, bytecode.OpMinimum, bytecode.OpDivide}
		for k := 1 + g.n(3); k > 0; k-- {
			a := window()
			if len(p.Instrs) > 0 && g.n(2) == 0 {
				a = t
			}
			if g.n(3) == 0 {
				p.EmitUnary(unary[g.n(len(unary))], t, a)
			} else {
				p.EmitBinary(binary[g.n(len(binary))], t, a, operand())
			}
		}
	}

	folds := []bytecode.Opcode{bytecode.OpAddReduce, bytecode.OpMultiplyReduce, bytecode.OpMinimumReduce,
		bytecode.OpMaximumReduce, bytecode.OpLogicalAndReduce, bytecode.OpLogicalOrReduce,
		bytecode.OpArgminReduce, bytecode.OpArgmaxReduce}
	op := folds[g.n(len(folds))]
	odt := dt
	switch {
	case op.Info().Bool:
		odt = tensor.Bool
	case op.ArgReduce():
		odt = tensor.Int64
	case g.n(3) == 0:
		odt = nestDTypes[g.n(len(nestDTypes))]
	}
	lines := make(tensor.Shape, 0, rank)
	for d, ext := range shape {
		if d != axis {
			lines = append(lines, ext)
		}
	}
	if len(lines) == 0 {
		lines = tensor.MustShape(1)
	}
	ov := tensor.NewView(lines)
	if g.n(3) == 0 {
		ov, _ = ov.Slice(0, lines[0]-1, -1, -1)
	}
	keep, shared := g.n(4) == 0, odt == dt && g.n(8) == 0
	out := p.NewReg(odt, lines.Size())
	if shared {
		// The output lands inside the first input's buffer.
		out = p.NewReg(dt, base.Size())
		p.MarkInput(out)
		ov.Offset += g.n(base.Size() - lines.Size() + 1)
		gp.shared = map[bytecode.RegID]bytecode.RegID{out: xs[0]}
	}
	p.EmitReduce(op, bytecode.Reg(out, ov), t, axis)
	if !keep {
		p.EmitFree(t)
	}
	p.EmitSync(bytecode.Reg(out, ov))
	return gp
}

// foldBatch is one reduction epilogue for BenchmarkNestEpilogue and the
// allocation pin: the rows×cols float64 array x (its columns every second
// element when strided) goes through the multiply chain t = x·x·x·x, and
// op folds each row of t into one element; t is freed, so it stays virtual.
func foldBatch(rows, cols int, op bytecode.Opcode, strided bool) genProgram {
	p := bytecode.NewProgram()
	step := 1
	if strided {
		step = 2
	}
	x := p.NewReg(tensor.Float64, rows*cols*step)
	p.MarkInput(x)
	shape := tensor.MustShape(rows, cols)
	xv, _ := tensor.NewStridedView(0, shape, []int{cols * step, step})
	t := bytecode.Reg(p.NewReg(tensor.Float64, rows*cols), tensor.NewView(shape))
	p.EmitBinary(bytecode.OpMultiply, t, bytecode.Reg(x, xv), bytecode.Reg(x, xv))
	p.EmitBinary(bytecode.OpMultiply, t, t, bytecode.Reg(x, xv))
	p.EmitBinary(bytecode.OpMultiply, t, t, bytecode.Reg(x, xv))
	odt := tensor.Float64
	if op.ArgReduce() {
		odt = tensor.Int64
	}
	out := bytecode.Reg(p.NewReg(odt, rows), tensor.NewView(tensor.MustShape(rows)))
	p.EmitReduce(op, out, t, 1)
	p.EmitFree(t)
	p.EmitSync(out)
	in := tensor.MustNew(tensor.Float64, tensor.MustShape(rows*cols*step))
	in.FillRandom(5, 0.5, 1.5)
	return genProgram{prog: p, inputs: map[bytecode.RegID]tensor.Tensor{x: in}}
}

// TestNestFoldBatches pins the shapes BenchmarkNestEpilogue times: each
// runs as one fused reduction, bit-equal to the interpreter.
func TestNestFoldBatches(t *testing.T) {
	for _, bc := range foldBenchCases {
		t.Run(bc.name, func(t *testing.T) {
			gp := bc.small()
			checkNestDifferential(t, gp)
			m := nestRun(t, gp, Config{Fusion: true, Workers: 2, ParallelThreshold: 64}, false)
			if st := m.Stats(); st.FusedReductions != 1 || st.Sweeps != 1 || st.ChainedInstructions != 3 {
				t.Errorf("ran as %d sweeps with %d fused reductions and %d chained instructions, want 1, 1 and 3",
					st.Sweeps, st.FusedReductions, st.ChainedInstructions)
			}
		})
	}
}

// foldBenchCase is one BenchmarkNestEpilogue shape (foldBatch's arguments).
type foldBenchCase struct {
	name       string
	rows, cols int
	op         bytecode.Opcode
	strided    bool
}

var foldBenchCases = []foldBenchCase{
	{"dense-sum-chunked", 1, 1 << 20, bytecode.OpAddReduce, false},
	{"strided-sum", 1, 1 << 20, bytecode.OpAddReduce, true},
	{"rows-33", 1 << 15, 33, bytecode.OpAddReduce, false},
	{"argmin-rows", 1 << 12, 256, bytecode.OpArgminReduce, false},
}

func (bc foldBenchCase) batch() genProgram {
	return foldBatch(bc.rows, bc.cols, bc.op, bc.strided)
}

// small is the case at a size the differential affords.
func (bc foldBenchCase) small() genProgram {
	return foldBatch(min(bc.rows, 300), min(bc.cols, 5000), bc.op, bc.strided)
}

// BenchmarkNestEpilogue times reduction epilogues as one cached plan each
// at the default configuration: a dense full-axis sum (chunk-axis), the
// same over a strided producer (gathered), 33-element rows (split-outputs,
// many lines per block) and argmin over rows.
func BenchmarkNestEpilogue(b *testing.B) {
	for _, bc := range foldBenchCases {
		b.Run(bc.name, func(b *testing.B) {
			gp := bc.batch()
			m := New(Config{Fusion: true})
			defer m.Close()
			for r, in := range gp.inputs {
				m.Bind(r, cloneTensor(in))
			}
			pl, err := m.Compile(gp.prog)
			if err != nil {
				b.Fatal(err)
			}
			if err := pl.Execute(m); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(8 * bc.rows * bc.cols))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pl.Execute(m); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if fr := m.Stats().FusedReductions; fr == 0 {
				b.Fatalf("%s did not fold", bc.name)
			}
		})
	}
}
