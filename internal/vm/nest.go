package vm

import (
	"fmt"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// A nest is the one compiled form of every elementwise sweep — fused
// cluster or single instruction, contiguous or strided — built once in
// Machine.Compile and shared, immutable, by every execution of the plan.
//
// Dimensions of the cluster's iteration shape that are jointly contiguous
// across all operands are collapsed, so a cluster over dense arrays is a
// single 1-D run. What remains is an odometer over the outer axes and an
// innermost run; each operand records its base offset and one stride per
// outer axis. Executing a nest binds the registers' typed slices into a
// frame before any goroutine starts (so allocation failures surface on
// the caller, never in a worker), then splits the flat element range
// across workers. A worker runs *all* of the nest's steps over one row —
// in blocks of fusedBlockSize — before advancing the odometer, which
// keeps a stencil's fused temporaries cache-resident between steps.
//
// Every step runs the same run kernel (loops.go) over unit-stride slices.
// An operand whose innermost stride is not 1 (negative-step, strided,
// broadcast) is packed into per-worker scratch by one typed gather loop,
// and a strided result is scattered back, so there is exactly one kernel
// table.
type nest struct {
	start, end int  // instruction range [start, end)
	fused      bool // more than one step
	outer      []int
	inner      int     // length of the innermost run
	total      int     // elements per step: inner × product(outer)
	bases      []int   // view offset per operand slot
	strides    [][]int // strides[d][slot]: stride of outer axis d
	steps      []nestStep
}

// nestStep is one instruction of a nest.
type nestStep struct {
	index int        // instruction index
	ops   [3]bufSpan // result, first input, second input (register operands only)
	code  stepBinder // nil: the op has no kernel (reported at execution)
}

// bufSpan is what a register operand demands of the buffer bound to it:
// the declared dtype and the index range its view touches (lo > hi: none).
type bufSpan struct {
	dtype  tensor.DType
	lo, hi int
}

// operandAccess locates an operand's current run for a typed step: its
// slot in the worker's offset table and its innermost stride. slot < 0
// marks a constant or absent operand.
type operandAccess struct{ slot, stride int }

// stepBinder is a typed step's compiled, buffer-independent code; bind
// attaches one execution's buffers (nil for constant operands).
type stepBinder interface {
	bind(dst, a, b tensor.Buffer) boundStep
}

// boundStep runs one step over n elements of the worker's current row,
// starting at column col.
type boundStep interface {
	run(w *nestWorker, col, n int)
}

// nestWorker is one worker's position in the nest and its gather/scatter
// scratch, keyed by storage kind so mixed-dtype clusters do not thrash.
type nestWorker struct {
	offs   []int // current row's base offset per operand slot
	coords []int // odometer position over the outer axes
	blk    int   // scratch length: the longest run a step is handed
	scr    [5][3]any
}

// compileNest compiles instructions [start, end) of p — vetted by sweepAt
// to share the iteration shape — into a nest. A single instruction whose
// op has no kernel yields nil: it stays with the interpreter, which
// reports the error.
func compileNest(p *bytecode.Program, start, end int, shape tensor.Shape) *nest {
	n := end - start
	ns := &nest{start: start, end: end, fused: n > 1, total: shape.Size(), steps: make([]nestStep, 0, n)}
	views := make([]tensor.View, 0, 3*n) // per operand slot, broadcast to shape
	accs := make([][3]operandAccess, 0, n)
	for i := start; i < end; i++ {
		in := &p.Instrs[i]
		st := nestStep{index: i}
		acc := [3]operandAccess{{slot: -1}, {slot: -1}, {slot: -1}}
		for k, o := range [3]*bytecode.Operand{&in.Out, &in.In1, &in.In2} {
			if !o.IsReg() {
				continue
			}
			v := o.View
			if !v.Shape.Equal(shape) {
				v, _ = v.BroadcastTo(shape) // broadcastable: sweepAt checked
			}
			ri, _ := p.Reg(o.Reg)
			st.ops[k] = bufSpan{dtype: ri.DType, hi: -1}
			if lo, hi, ok := v.MinMaxIndex(); ok {
				st.ops[k].lo, st.ops[k].hi = lo, hi
			}
			acc[k].slot = len(views)
			views = append(views, v)
		}
		ns.steps = append(ns.steps, st)
		accs = append(accs, acc)
	}

	// Collapse: drop singleton dimensions, then merge each dimension into
	// its outer neighbour when every operand steps through the pair as
	// through one dense dimension.
	type axis struct {
		extent  int
		strides []int
	}
	axes := make([]axis, 0, len(shape))
	strides := make([]int, len(shape)*len(views))
	for d, extent := range shape {
		if extent == 1 {
			continue
		}
		cur := strides[d*len(views) : (d+1)*len(views)]
		for s := range views {
			cur[s] = views[s].Strides[d]
		}
		if n := len(axes); n > 0 {
			dense := true
			for s, prev := range axes[n-1].strides {
				if prev != extent*cur[s] {
					dense = false
					break
				}
			}
			if dense {
				axes[n-1] = axis{axes[n-1].extent * extent, cur}
				continue
			}
		}
		axes = append(axes, axis{extent, cur})
	}
	ns.inner = 1
	if n := len(axes); n > 0 {
		ns.inner = axes[n-1].extent
		for k := range accs {
			for j := range accs[k] {
				if s := accs[k][j].slot; s >= 0 {
					accs[k][j].stride = axes[n-1].strides[s]
				}
			}
		}
		for _, ax := range axes[:n-1] {
			ns.outer = append(ns.outer, ax.extent)
			ns.strides = append(ns.strides, ax.strides)
		}
	} else {
		for k := range accs {
			for j := range accs[k] {
				accs[k][j].stride = 1 // a single element: any stride addresses it
			}
		}
	}
	ns.bases = make([]int, len(views))
	for s := range views {
		ns.bases[s] = views[s].Offset
	}

	for k := range ns.steps {
		st := &ns.steps[k]
		in := &p.Instrs[st.index]
		srcDT := st.ops[0].dtype
		srcs := make([]ksrc, 0, 2)
		for j, o := range [2]*bytecode.Operand{&in.In1, &in.In2} {
			switch {
			case o.IsConst():
				srcs = append(srcs, constSrc(o.Const))
			case o.IsReg():
				srcs = append(srcs, ksrc{})
				srcDT = st.ops[j+1].dtype
			}
		}
		st.code = newKernelStep(st.ops[0].dtype, srcDT, in.Op, srcs, accs[k])
	}
	if !ns.fused && ns.steps[0].code == nil {
		return nil
	}
	return ns
}

// newKernelStep compiles one step's kernel for its (result, source) dtype
// pair, or returns nil when the op has no kernel.
func newKernelStep(dstDT, srcDT tensor.DType, op bytecode.Opcode, srcs []ksrc, acc [3]operandAccess) stepBinder {
	switch dstDT {
	case tensor.Float64:
		return kernelStepTo[float64](dstDT, srcDT, op, srcs, acc)
	case tensor.Float32:
		return kernelStepTo[float32](dstDT, srcDT, op, srcs, acc)
	case tensor.Int64:
		return kernelStepTo[int64](dstDT, srcDT, op, srcs, acc)
	case tensor.Int32:
		return kernelStepTo[int32](dstDT, srcDT, op, srcs, acc)
	case tensor.Bool, tensor.Uint8:
		return kernelStepTo[uint8](dstDT, srcDT, op, srcs, acc)
	}
	return nil
}

func kernelStepTo[D tensor.Elem](dstDT, srcDT tensor.DType, op bytecode.Opcode, srcs []ksrc, acc [3]operandAccess) stepBinder {
	if srcDT == dstDT {
		k, ok := compileLoop[D](dstDT, op, srcs)
		if !ok {
			return nil
		}
		return kernelStepOf(k, dstDT, srcDT, acc)
	}
	// Mixed dtypes: sweepAt admits only the BH_IDENTITY cast.
	switch srcDT {
	case tensor.Float64:
		return kernelStepOf(castKernel[D, float64](dstDT, srcDT), dstDT, srcDT, acc)
	case tensor.Float32:
		return kernelStepOf(castKernel[D, float32](dstDT, srcDT), dstDT, srcDT, acc)
	case tensor.Int64:
		return kernelStepOf(castKernel[D, int64](dstDT, srcDT), dstDT, srcDT, acc)
	case tensor.Int32:
		return kernelStepOf(castKernel[D, int32](dstDT, srcDT), dstDT, srcDT, acc)
	case tensor.Bool, tensor.Uint8:
		return kernelStepOf(castKernel[D, uint8](dstDT, srcDT), dstDT, srcDT, acc)
	}
	return nil
}

func kernelStepOf[D, S tensor.Elem](k kernel[D, S], dstDT, srcDT tensor.DType, acc [3]operandAccess) stepBinder {
	return &kernelStep[D, S]{kern: k, out: acc[0], in1: acc[1], in2: acc[2],
		dstKind: storageKind(dstDT), srcKind: storageKind(srcDT)}
}

// storageKind indexes nestWorker.scr by a dtype's storage type.
func storageKind(dt tensor.DType) int {
	switch dt {
	case tensor.Float64:
		return 0
	case tensor.Float32:
		return 1
	case tensor.Int64:
		return 2
	case tensor.Int32:
		return 3
	default:
		return 4
	}
}

// kernelStep is a step's typed code: D is the result's storage type, S
// the inputs' (the same type except for casts).
type kernelStep[D, S tensor.Elem] struct {
	kern             kernel[D, S]
	out, in1, in2    operandAccess
	dstKind, srcKind int
}

// boundKernel is a kernelStep bound to one execution's raw slices.
type boundKernel[D, S tensor.Elem] struct {
	*kernelStep[D, S]
	dst  []D
	a, b []S
}

func (st *kernelStep[D, S]) bind(dst, a, b tensor.Buffer) boundStep {
	bk := &boundKernel[D, S]{kernelStep: st}
	bk.dst, _ = tensor.RawSlice[D](dst) // dtypes were checked by runNest
	if a != nil {
		bk.a, _ = tensor.RawSlice[S](a)
	}
	if b != nil {
		bk.b, _ = tensor.RawSlice[S](b)
	}
	return bk
}

func (bk *boundKernel[D, S]) run(w *nestWorker, col, n int) {
	a := inputRun(w, bk.srcKind, 1, bk.a, bk.in1, col, n)
	b := inputRun(w, bk.srcKind, 2, bk.b, bk.in2, col, n)
	off := w.offs[bk.out.slot] + col*bk.out.stride
	if bk.out.stride == 1 {
		bk.kern(bk.dst[off:off+n], a, b)
		return
	}
	d := scratch[D](w, bk.dstKind, 0)[:n]
	bk.kern(d, a, b)
	for _, v := range d {
		bk.dst[off] = v
		off += bk.out.stride
	}
}

// inputRun returns n elements of an input operand's current row from
// column col as a unit-stride slice: the buffer itself when the operand's
// innermost stride is 1, gathered into scratch otherwise.
func inputRun[T tensor.Elem](w *nestWorker, kind, k int, src []T, acc operandAccess, col, n int) []T {
	if acc.slot < 0 {
		return nil
	}
	off := w.offs[acc.slot] + col*acc.stride
	if acc.stride == 1 {
		return src[off : off+n]
	}
	s := scratch[T](w, kind, k)[:n]
	for i := range s {
		s[i] = src[off]
		off += acc.stride
	}
	return s
}

func scratch[T tensor.Elem](w *nestWorker, kind, k int) []T {
	s, _ := w.scr[kind][k].([]T)
	if s == nil {
		s = make([]T, w.blk)
		w.scr[kind][k] = s
	}
	return s
}

// sweep runs flat elements [lo, hi) of the nest's iteration space (row
// major: rows of inner elements) through every bound step.
func (ns *nest) sweep(bound []boundStep, lo, hi int) {
	w := nestWorker{offs: ns.bases, blk: min(ns.inner, fusedBlockSize)}
	col := lo
	if len(ns.outer) > 0 {
		// Seek the odometer to the row holding lo.
		row := lo / ns.inner
		col = lo % ns.inner
		w.offs = append([]int(nil), ns.bases...)
		w.coords = make([]int, len(ns.outer))
		for d := len(ns.outer) - 1; d >= 0; d-- {
			c := row % ns.outer[d]
			row /= ns.outer[d]
			w.coords[d] = c
			for s, stride := range ns.strides[d] {
				w.offs[s] += c * stride
			}
		}
	}
	for lo < hi {
		end := min(ns.inner, col+hi-lo)
		for c := col; c < end; c += fusedBlockSize {
			n := min(fusedBlockSize, end-c)
			for _, b := range bound {
				b.run(&w, c, n)
			}
		}
		lo += end - col
		col = 0
		if lo < hi {
			ns.advance(&w)
		}
	}
}

// advance moves the worker to the next row: an odometer increment that
// shifts every operand's offset by the matching stride.
func (ns *nest) advance(w *nestWorker) {
	for d := len(ns.outer) - 1; d >= 0; d-- {
		strides := ns.strides[d]
		w.coords[d]++
		if w.coords[d] < ns.outer[d] {
			for s, stride := range strides {
				w.offs[s] += stride
			}
			return
		}
		w.coords[d] = 0
		back := ns.outer[d] - 1
		for s, stride := range strides {
			w.offs[s] -= back * stride
		}
	}
}

// runNest executes a compiled nest against m's current register
// bindings. Result registers materialize on demand; so do the inputs of a
// fused cluster, while a single instruction requires its inputs bound,
// exactly as the interpreter does. A single instruction whose buffers
// turn out to need the interpreter's dynamic handling — a bound buffer of
// another dtype than declared, or an input aliasing the result's buffer
// through a different overlapping window — runs there instead.
func (m *Machine) runNest(p *bytecode.Program, ns *nest) error {
	bound := make([]boundStep, len(ns.steps))
	for si := range ns.steps {
		st := &ns.steps[si]
		in := &p.Instrs[st.index]
		var bufs [3]tensor.Buffer
		for k, o := range [3]*bytecode.Operand{&in.Out, &in.In1, &in.In2} {
			if !o.IsReg() {
				continue
			}
			var buf tensor.Buffer
			if k == 0 || ns.fused {
				b, err := m.regs.ensure(p, o.Reg)
				if err != nil {
					return instrErr(p, st.index, err)
				}
				buf = b
			} else if buf = m.regs.get(o.Reg); buf == nil {
				return instrErr(p, st.index, fmt.Errorf("input register %s has no buffer", o.Reg))
			}
			span := st.ops[k]
			if buf.DType() != span.dtype {
				if !ns.fused {
					return m.interpret(p, ns.start, ns.end)
				}
				role := "input"
				if k == 0 {
					role = "output"
				}
				return instrErr(p, st.index, fmt.Errorf("fused %s %s is not %v", role, o.Reg, span.dtype))
			}
			if span.lo < 0 || span.hi >= buf.Len() {
				return instrErr(p, st.index, fmt.Errorf("view of %s spans elements [%d, %d] of a %d-element buffer",
					o.Reg, span.lo, span.hi, buf.Len()))
			}
			if k > 0 && !ns.fused && buf == bufs[0] && o.Reg != in.Out.Reg &&
				!o.View.Equal(in.Out.View) && o.View.Overlaps(in.Out.View) {
				return m.interpret(p, ns.start, ns.end)
			}
			bufs[k] = buf
		}
		if st.code == nil {
			return instrErr(p, st.index, fmt.Errorf("no compiled loop for %s", in.Op))
		}
		bound[si] = st.code.bind(bufs[0], bufs[1], bufs[2])
	}

	k := len(ns.steps)
	m.stats.instructions.Add(int64(k))
	m.stats.sweeps.Add(1)
	m.stats.elements.Add(int64(ns.total * k))
	if ns.fused {
		m.stats.fusedInstructions.Add(int64(k))
		m.countFusedDTypes(p, ns.start, ns.end)
	}
	m.par.parallelFor(ns.total, m.cfg.ParallelThreshold, func(lo, hi int) {
		ns.sweep(bound, lo, hi)
	})
	return nil
}

// interpret runs instructions [start, end) one at a time through the
// accessor interpreter (exec.go).
func (m *Machine) interpret(p *bytecode.Program, start, end int) error {
	for i := start; i < end; i++ {
		if err := m.exec(p, &p.Instrs[i]); err != nil {
			return instrErr(p, i, err)
		}
	}
	return nil
}
