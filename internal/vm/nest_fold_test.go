package vm

import (
	"fmt"
	"math"
	"slices"
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
// and then an output bound to an input's buffer (the two-sweep fallback);
// now and then a BH_FREE of a dead temporary among the producers.
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
	// Now and then producer k+1 writes a second temporary, which every later
	// step uses in t's place, and t is freed right after it: a BH_FREE
	// inside the fold nest. The draw comes last, so shorter corpus entries
	// decode as before.
	if red := slices.IndexFunc(p.Instrs, func(in bytecode.Instruction) bool { return in.Op == op }); red >= 2 && g.n(4) == 3 {
		k := g.n(red - 1)
		t2 := p.NewReg(dt, shape.Size())
		for i := k + 1; i < len(p.Instrs); i++ {
			for j, o := range operands(&p.Instrs[i]) {
				if o.IsReg() && o.Reg == t.Reg && (i > k+1 || j == 0) {
					o.Reg = t2
				}
			}
		}
		p.Instrs = slices.Insert(p.Instrs, k+2, bytecode.Instruction{Op: bytecode.OpFree, Out: t})
	}
	return gp
}

// standalone decodes the stream into a reduction or scan that closes no
// cluster — a fold nest of its own: rank 1-3 over any axis; any value or
// index fold, or a sum or product scan, of any of the six dtypes, into an
// output of another dtype now and then; its input an input register, a
// register BH_RANDOM or a cast wrote, or another reduction's output, read
// through contiguous, strided, reversed and broadcast windows; a folded
// axis of 0 (empty), 1, 33, more than fusedBlockSize or chunkable length,
// or enough lines for split-outputs at a threshold of 4; and now and then
// an output bound to the input register's buffer — a reduction's anywhere
// in it, a scan's through the input's own window, a shifted one or another
// — declared of the input's dtype or another.
func (g *nestGen) standalone() genProgram {
	dt := nestDTypes[g.n(len(nestDTypes))]
	rank := 1 + g.n(3)
	axis := g.n(rank)
	scan := g.n(3) == 0
	shape := make(tensor.Shape, rank)
	for d := range shape {
		shape[d] = 1 + g.n(4)
	}
	switch g.n(9) {
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
	case 6:
		shape[axis] = 0
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
	input := func(dt tensor.DType, shape tensor.Shape) bytecode.RegID {
		r := p.NewReg(dt, shape.Size())
		p.MarkInput(r)
		in := tensor.MustNew(dt, shape)
		seed := uint64(r)*97 + uint64(g.n(256))
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
		gp.inputs[r] = in
		return r
	}
	// window cuts the iteration shape out of base: per axis contiguous,
	// every second element, reversed, or (not an output) broadcast.
	window := func(result bool) tensor.View {
		v := tensor.View{Shape: shape.Clone(), Strides: make([]int, rank)}
		for d, ext := range shape {
			mode := g.n(5)
			if result && mode == 4 || ext == 0 {
				mode = 0
			}
			step := [...]int{1, 1, 2, -1, 0}[mode]
			span := max(ext-1, 0) * max(step, -step)
			start := g.n(base[d] - span)
			if step < 0 {
				start += span
			}
			v.Offset += start * baseStrides[d]
			v.Strides[d] = step * baseStrides[d]
		}
		return v
	}

	x := input(dt, base)
	src := x
	switch g.n(5) {
	case 1: // a register BH_RANDOM wrote
		src = p.NewReg(dt, base.Size())
		p.Emit(bytecode.Instruction{Op: bytecode.OpRandom, Out: bytecode.Reg(src, tensor.NewView(base)),
			In1: bytecode.Const(bytecode.ConstInt(int64(g.n(100)))), In2: bytecode.Const(bytecode.ConstInt(0))})
	case 2: // a cast
		if other := nestDTypes[g.n(len(nestDTypes))]; other != dt {
			src = p.NewReg(dt, base.Size())
			p.EmitIdentity(bytecode.Reg(src, tensor.NewView(base)), bytecode.Reg(input(other, base), tensor.NewView(base)))
		}
	case 3: // another reduction's output, over lines of a trailing axis
		deep := append(base.Clone(), 1+g.n(3))
		src = p.NewReg(dt, base.Size())
		op := []bytecode.Opcode{bytecode.OpAddReduce, bytecode.OpMaximumReduce, bytecode.OpMultiplyReduce}[g.n(3)]
		p.EmitReduce(op, bytecode.Reg(src, tensor.NewView(base)), bytecode.Reg(input(dt, deep), tensor.NewView(deep)), rank)
	}
	in := window(false)

	var op bytecode.Opcode
	odt := dt
	if scan {
		op = []bytecode.Opcode{bytecode.OpAddAccumulate, bytecode.OpMultiplyAccumulate}[g.n(2)]
	} else {
		folds := []bytecode.Opcode{bytecode.OpAddReduce, bytecode.OpMultiplyReduce, bytecode.OpLogicalAndReduce,
			bytecode.OpLogicalOrReduce, bytecode.OpMinimumReduce, bytecode.OpMaximumReduce,
			bytecode.OpArgminReduce, bytecode.OpArgmaxReduce}
		if shape[axis] == 0 {
			folds = folds[:4] // the others have no identity: an error, which genRun does not expect
		}
		op = folds[g.n(len(folds))]
		switch {
		case op.Info().Bool:
			odt = tensor.Bool
		case op.ArgReduce():
			odt = tensor.Int64
		}
	}
	if g.n(3) == 0 {
		odt = nestDTypes[g.n(len(nestDTypes))]
	}
	var ov tensor.View
	if scan {
		ov = window(true)
	} else {
		lines := slices.Delete(shape.Clone(), axis, axis+1)
		if len(lines) == 0 {
			lines = tensor.MustShape(1)
		}
		ov = tensor.NewView(lines)
		if g.n(3) == 0 {
			ov, _ = ov.Slice(0, lines[0]-1, -1, -1)
		}
		ov.Offset += g.n(base.Size() - lines.Size() + 1)
	}
	out := p.NewReg(odt, base.Size())
	if src == x && g.n(4) == 0 {
		// The output is bound to x's buffer: a scan's through x's own
		// window, the same shifted by one element, or another.
		p.MarkInput(out)
		gp.shared = map[bytecode.RegID]bytecode.RegID{out: x}
		if scan {
			switch g.n(3) {
			case 0:
				ov = in
			case 1:
				if _, hi, ok := in.MinMaxIndex(); ok && hi+1 < base.Size() {
					ov = in
					ov.Offset++
				}
			}
		}
	}
	p.EmitReduce(op, bytecode.Reg(out, ov), bytecode.Reg(src, in), axis)
	p.EmitSync(bytecode.Reg(out, ov))
	return gp
}

// foldBatch is one reduction epilogue for BenchmarkNestEpilogue and the
// allocation pin: the rows×cols array x of dtype dt (its columns every
// second element when strided) goes through the multiply chain
// t = x·x·x·x, and op folds each row of t into one element; t is freed, so
// it stays virtual.
func foldBatch(rows, cols int, dt tensor.DType, op bytecode.Opcode, strided bool) genProgram {
	p := bytecode.NewProgram()
	step := 1
	if strided {
		step = 2
	}
	x := p.NewReg(dt, rows*cols*step)
	p.MarkInput(x)
	shape := tensor.MustShape(rows, cols)
	xv, _ := tensor.NewStridedView(0, shape, []int{cols * step, step})
	t := bytecode.Reg(p.NewReg(dt, rows*cols), tensor.NewView(shape))
	p.EmitBinary(bytecode.OpMultiply, t, bytecode.Reg(x, xv), bytecode.Reg(x, xv))
	p.EmitBinary(bytecode.OpMultiply, t, t, bytecode.Reg(x, xv))
	p.EmitBinary(bytecode.OpMultiply, t, t, bytecode.Reg(x, xv))
	odt := dt
	if op.ArgReduce() {
		odt = tensor.Int64
	}
	out := bytecode.Reg(p.NewReg(odt, rows), tensor.NewView(tensor.MustShape(rows)))
	p.EmitReduce(op, out, t, 1)
	p.EmitFree(t)
	p.EmitSync(out)
	in := tensor.MustNew(dt, tensor.MustShape(rows*cols*step))
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
			chained := 3 * btoi(bc.source == nil)
			if st := m.Stats(); st.FusedReductions != 1 || st.Sweeps != 1 || st.ChainedInstructions != chained {
				t.Errorf("ran as %d sweeps with %d fused reductions and %d chained instructions, want 1, 1 and %d",
					st.Sweeps, st.FusedReductions, st.ChainedInstructions, chained)
			}
		})
	}
}

// foldBenchCase is one BenchmarkNestEpilogue shape: foldBatch's arguments,
// or the listing source returns for rows×cols elements.
type foldBenchCase struct {
	name       string
	rows, cols int
	dt         tensor.DType
	op         bytecode.Opcode
	strided    bool
	source     func(n int) string
}

var foldBenchCases = []foldBenchCase{
	{"dense-sum-chunked", 1, 1 << 20, tensor.Float64, bytecode.OpAddReduce, false, nil},
	{"strided-sum", 1, 1 << 20, tensor.Float64, bytecode.OpAddReduce, true, nil},
	{"rows-33", 1 << 15, 33, tensor.Float64, bytecode.OpAddReduce, false, nil},
	{"argmin-rows", 1 << 12, 256, tensor.Float64, bytecode.OpArgminReduce, false, nil},
	{"sum-2048", 1, 2048, tensor.Float64, bytecode.OpAddReduce, false, nil},
	{"max-rows", 1 << 12, 256, tensor.Float64, bytecode.OpMaximumReduce, false, nil},
	{"f32-sum-chunked", 1, 1 << 20, tensor.Float32, bytecode.OpAddReduce, false, nil},
	{"random-sum", 1, 1 << 20, tensor.Float64, bytecode.OpAddReduce, false, randomSum},
	{"less-cast-sum", 1, 1 << 20, tensor.Float64, bytecode.OpAddReduce, false, montecarloPi},
}

func (bc foldBenchCase) batch() genProgram {
	return bc.sized(bc.rows, bc.cols)
}

// small is the case at a size the differential affords.
func (bc foldBenchCase) small() genProgram {
	return bc.sized(min(bc.rows, 300), min(bc.cols, 5000))
}

func (bc foldBenchCase) sized(rows, cols int) genProgram {
	if bc.source != nil {
		return genProgram{prog: bytecode.MustParse(bc.source(rows * cols))}
	}
	return foldBatch(rows, cols, bc.dt, bc.op, bc.strided)
}

// randomSum is BH_RANDOM → × → + → sum over n elements, its temporaries
// freed.
func randomSum(n int) string {
	return fmt.Sprintf(`
.reg a0 float64 %[1]d
.reg a1 float64 %[1]d
.reg a2 float64 1
BH_RANDOM a0 [0:%[1]d:1] 7 0
BH_MULTIPLY a1 [0:%[1]d:1] a0 [0:%[1]d:1] 2.5
BH_ADD a1 [0:%[1]d:1] a1 [0:%[1]d:1] a0 [0:%[1]d:1]
BH_ADD_REDUCE a2 [0:1:1] a1 [0:%[1]d:1] axis=0
BH_FREE a0
BH_FREE a1
BH_SYNC a2
`, n)
}

// BenchmarkNestEpilogue times reduction epilogues as one cached plan each
// at the default configuration: a dense full-axis sum (chunk-axis), the
// same over a strided producer (gathered), 33-element rows (split-outputs,
// many lines per block), argmin and max over rows, the dispatch-small
// power batch's 2 048-element sum (serial), a float32 dense sum, and two
// batches with generators: a BH_RANDOM scaled and summed, and the Monte
// Carlo π batch (a float comparison into bool, cast back and summed).
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
			if err := pl.Execute(m, nil); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(bc.dt.Size() * bc.rows * bc.cols))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pl.Execute(m, nil); err != nil {
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

// perElement swaps st's run kernels for the loop they replaced, which calls
// the base op k, or the comparison better, once per element: their oracle.
func (st *foldStep[T, E]) perElement() {
	if k := st.k; k != nil {
		st.kern = func(acc E, s []T) E {
			for _, x := range s {
				acc = k(acc, E(x))
			}
			return acc
		}
		return
	}
	better := st.better
	st.argKern = func(best E, at int, s []T, j int) (E, int) {
		for i, x := range s {
			if e := E(x); better(e, best) {
				best, at = e, j+i
			}
		}
		return best, at
	}
}

// foldCase is one reduction over the values vals of dtype dt, shaped and
// folded along axis into odt, for TestNestFoldKernelsMatchOracle.
type foldCase struct {
	dt, odt tensor.DType
	op      bytecode.Opcode
	shape   tensor.Shape
	axis    int
	vals    []float64
}

func (fc foldCase) String() string {
	return fmt.Sprintf("%v %v->%v shape %v axis %d %v", fc.op, fc.dt, fc.odt, fc.shape, fc.axis, fc.vals[:min(len(fc.vals), 6)])
}

// program is the fold nest t = x; out = op(t, axis); BH_FREE t, with x
// bound to vals (integers set exactly).
func (fc foldCase) program() genProgram {
	p := bytecode.NewProgram()
	size := fc.shape.Size()
	x := p.NewReg(fc.dt, size)
	p.MarkInput(x)
	tv := tensor.NewView(fc.shape)
	t := bytecode.Reg(p.NewReg(fc.dt, size), tv)
	p.EmitIdentity(t, bytecode.Reg(x, tv))
	lines := slices.Delete(fc.shape.Clone(), fc.axis, fc.axis+1)
	if len(lines) == 0 {
		lines = tensor.MustShape(1)
	}
	out := bytecode.Reg(p.NewReg(fc.odt, lines.Size()), tensor.NewView(lines))
	p.EmitReduce(fc.op, out, t, fc.axis)
	p.EmitFree(t)
	p.EmitSync(out)
	in := tensor.MustNew(fc.dt, tensor.MustShape(size))
	for i := range size {
		if v := fc.vals[i%len(fc.vals)]; fc.dt.IsFloat() {
			in.Buf.Set(i, v)
		} else {
			in.Buf.SetInt(i, int64(v))
		}
	}
	return genProgram{prog: p, inputs: map[bytecode.RegID]tensor.Tensor{x: in}}
}

// foldCases builds the special-value and long-line cases: every fold op
// over each value set of each dtype, into the input's dtype (bool for the
// logical folds, int64 for the index folds) and, for value folds of
// integers, into float64 as well.
func foldCases() []foldCase {
	nan, inf, negz := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	floats := [][]float64{
		{nan, 1, 2, -3}, {1, nan, 2}, {1, 2, nan}, // NaN first, in the middle, last
		{nan, inf, 1}, {inf, nan}, {-inf, nan}, // math.Max(NaN, +Inf) is +Inf
		{0, negz}, {negz, 0}, {negz, negz, 0}, {0, 0, negz}, {negz, negz}, // ±0 order
		{-inf, inf, 1}, {inf, -inf}, {1, -inf, inf},
		{3, 1, 1, 3}, {1, 5, 5, 1}, {nan, 1, nan}, {2, 2}, // ties, a leading NaN
		{1e308, 1e308, -1e308}, {0.1, 0.2, 0.3, -0.6},
	}
	ints := [][]float64{
		{1 << 40, 1 << 30, 3, -7}, // int64 multiply wraps
		{2e9, 2e9, -5},            // an int32 sum that narrows
		{200, 100, 7},             // a uint8 sum that narrows
		{3, 1, 1, 3}, {0, 5, 0}, {-1, -1, 2}, {7},
	}
	bools := [][]float64{{1, 0, 1}, {1, 1, 1}, {0, 0, 0}, {0, 1}, {1}}
	ops := []bytecode.Opcode{bytecode.OpAddReduce, bytecode.OpMultiplyReduce, bytecode.OpMinimumReduce,
		bytecode.OpMaximumReduce, bytecode.OpLogicalAndReduce, bytecode.OpLogicalOrReduce,
		bytecode.OpArgminReduce, bytecode.OpArgmaxReduce}
	outputs := func(dt tensor.DType, op bytecode.Opcode) []tensor.DType {
		switch {
		case op.Info().Bool:
			return []tensor.DType{tensor.Bool}
		case op.ArgReduce():
			return []tensor.DType{tensor.Int64}
		case !dt.IsFloat():
			return []tensor.DType{dt, tensor.Float64}
		}
		return []tensor.DType{dt}
	}
	var cases []foldCase
	add := func(dt tensor.DType, shape tensor.Shape, axis int, vals []float64) {
		for _, op := range ops {
			for _, odt := range outputs(dt, op) {
				cases = append(cases, foldCase{dt, odt, op, shape, axis, vals})
			}
		}
	}
	for _, dt := range nestDTypes {
		sets := ints
		switch {
		case dt.IsFloat():
			sets = floats
		case dt == tensor.Bool:
			sets = bools
		}
		for _, vals := range sets {
			add(dt, tensor.MustShape(len(vals)), 0, vals)
		}
		// Long lines: values whose float sums depend on the order, and for
		// floats the same with one NaN in the last line.
		long := make([]float64, 2*reduceMinChunk+fusedBlockSize+41)
		seed := uint64(dt) + 1
		for i := range long {
			seed = seed*6364136223846793005 + 1442695040888963407
			long[i] = float64(int64(seed>>59)) - 8
			switch {
			case dt == tensor.Bool:
				long[i] = float64(seed >> 63)
			case dt.IsFloat():
				long[i] += float64(seed>>11) / (1 << 53)
			}
		}
		sets = [][]float64{long}
		if dt.IsFloat() {
			withNaN := slices.Clone(long)
			withNaN[len(withNaN)-reduceMinChunk] = nan
			sets = append(sets, withNaN)
		}
		for _, vals := range sets {
			add(dt, tensor.MustShape(2, fusedBlockSize+37), 1, vals)        // lines cut across fusedBlockSize
			add(dt, tensor.MustShape(fusedBlockSize+3, 2), 0, vals)         // the reduced axis moved innermost
			add(dt, tensor.MustShape(2*reduceMinChunk+5), 0, vals)          // chunk partials
			add(dt, tensor.MustShape(reduceSplitMinOutputs+2, 40), 1, vals) // split outputs
		}
	}
	return cases
}

// TestNestFoldKernelsMatchOracle: each fold's run kernel gives, bit for
// bit, what the per-element loop it replaced gives (perElement, through the
// same nest) and what the reference engine gives (refInterpret), on special
// values, long lines and chunk partials, serial and on two workers; and
// the inlined float max and min give math.Max's and math.Min's bits on
// every pair of special values.
func TestNestFoldKernelsMatchOracle(t *testing.T) {
	cases := foldCases()
	for _, fc := range cases {
		gp := fc.program()
		cfgs := []Config{{Workers: 1, ParallelThreshold: 64}} // below the threshold: serial
		if fc.shape.Size() >= 64 {
			cfgs = append(cfgs, Config{Workers: 2, ParallelThreshold: 64}, Config{Workers: 2, ParallelThreshold: 1 << 30})
		}
		for _, cfg := range cfgs {
			want := genRun(t, gp, cfg, true) // the reference engine's reduction
			cfg.Fusion = true
			out := bytecode.RegID(len(gp.prog.Regs) - 1)
			wb := want.regs.get(out)
			for _, perElement := range []bool{false, true} {
				m := foldRun(t, fc, gp, cfg, perElement)
				gb := m.regs.get(out)
				for i := 0; i < wb.Len(); i++ {
					if math.Float64bits(gb.Get(i)) != math.Float64bits(wb.Get(i)) || gb.GetInt(i) != wb.GetInt(i) {
						t.Fatalf("%v, %+v, per-element %v: line %d = %v, reference has %v", fc, cfg, perElement, i, gb.Get(i), wb.Get(i))
					}
				}
				m.Close()
			}
			want.Close()
		}
	}
	t.Logf("%d cases", len(cases))

	specials := []float64{math.NaN(), -math.NaN(), math.Float64frombits(0x7FF0000000000123), math.Inf(1), math.Inf(-1),
		0, math.Copysign(0, -1), 1, -1, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, isMax := range []bool{true, false} {
		ref, base := math.Min, bytecode.OpMinimum
		if isMax {
			ref, base = math.Max, bytecode.OpMaximum
		}
		f64, _ := valueFold[float64, float64](base)
		f32, _ := valueFold[float32, float64](base)
		for _, a := range specials {
			for _, b := range specials {
				want := math.Float64bits(ref(a, b))
				if got := math.Float64bits(f64(a, []float64{b})); got != want {
					t.Errorf("%v fold of %v, %v = %#x, math gives %#x", base, a, b, got, want)
				}
				if b32 := float32(b); math.Float64bits(f32(a, []float32{b32})) != math.Float64bits(ref(a, float64(b32))) {
					t.Errorf("%v fold of %v, float32 %v = %v, math gives %v", base, a, b32, f32(a, []float32{b32}), ref(a, float64(b32)))
				}
			}
		}
	}
}

// foldRun executes fc's program as one fold nest, its run kernels swapped
// for the per-element oracle when perElement is set.
func foldRun(t *testing.T, fc foldCase, gp genProgram, cfg Config, perElement bool) *Machine {
	t.Helper()
	m := New(cfg)
	bindGen(m, gp)
	pl, err := m.Compile(gp.prog)
	if err != nil {
		t.Fatal(err)
	}
	if perElement {
		for i := range pl.clusters {
			if ns := &pl.clusters[i]; ns.line > 0 {
				ns.steps[len(ns.steps)-1].code.(interface{ perElement() }).perElement()
			}
		}
	}
	if err := pl.Execute(m, nil); err != nil {
		t.Fatalf("%v: %v", fc, err)
	}
	if st := m.Stats(); st.FusedReductions != 1 {
		t.Fatalf("%v: %d fused reductions, want 1", fc, st.FusedReductions)
	}
	return m
}
