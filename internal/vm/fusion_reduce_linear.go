package vm

import (
	"fmt"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Blockwise linear epilogue: when every operand of the producer cluster
// is contiguous over the shared shape, the folded sweep runs the same
// plan-time run kernels as the loop nest instead of interpreting steps
// per element. Each worker owns one scratch buffer of fusedBlockSize
// elements per virtual register; producer loops run block by block into
// scratch (or through to real memory for live registers), and the
// reduction folds each block in order the moment it is produced. The
// element order of every line/chunk fold is unchanged, so results stay
// bit-identical to the two-sweep path and independent of both the worker
// count and the block size.

// linSrc is a resolved source of a blockwise step: a constant, a virtual
// scratch slot, or a contiguous window of a real buffer.
type linSrc struct {
	isConst bool
	cf      float64
	ci      int64
	slot    int // >= 0: scratch
	buf     tensor.Buffer
	off     int
}

// linStep is one producer instruction resolved for blockwise execution.
type linStep struct {
	index   int // instruction index, for error reports
	dtype   tensor.DType
	op      bytecode.Opcode
	kern    linKernel // compiled at plan time; nil: the op has no kernel
	dstSlot int       // >= 0: scratch destination
	dstBuf  tensor.Buffer
	dstOff  int
	srcs    []linSrc
}

// resolveLinSteps binds the plan's steps to buffers and scratch slots,
// returning the compiled steps, the reduction source's location (scratch
// slot or buffer+offset), and every real buffer the sweep touches (for
// the output-alias check).
func (m *Machine) resolveLinSteps(p *bytecode.Program, plan *epiPlan) ([]linStep, int, tensor.Buffer, int, []tensor.Buffer, error) {
	var bufs []tensor.Buffer
	steps := make([]linStep, 0, len(plan.steps))
	for i := range plan.steps {
		sd := &plan.steps[i]
		st := linStep{index: sd.index, dtype: sd.dtype, op: sd.in.Op, kern: sd.kern, dstSlot: -1}
		if sd.matDst {
			buf, err := m.regs.ensure(p, sd.in.Out.Reg)
			if err != nil {
				return nil, 0, nil, 0, nil, instrErr(p, sd.index, err)
			}
			st.dstBuf, st.dstOff = buf, sd.in.Out.View.Offset
			bufs = append(bufs, buf)
		} else {
			st.dstSlot = sd.outSlot
		}
		for j := range sd.srcs {
			d := &sd.srcs[j]
			switch {
			case d.isConst:
				st.srcs = append(st.srcs, linSrc{isConst: true, cf: d.cf, ci: d.ci, slot: -1})
			case d.slot >= 0 && !plan.mat[d.reg]:
				st.srcs = append(st.srcs, linSrc{slot: d.slot})
			default:
				// Memory read: an external register, or a cluster-written
				// register that materializes — its values land in real
				// memory block-by-block before this step's loop runs.
				var buf tensor.Buffer
				var err error
				if _, written := plan.slotOf[d.reg]; written {
					buf, err = m.regs.ensure(p, d.reg)
					if err != nil {
						return nil, 0, nil, 0, nil, instrErr(p, sd.index, err)
					}
				} else if buf = m.regs.get(d.reg); buf == nil {
					return nil, 0, nil, 0, nil, instrErr(p, sd.index,
						fmt.Errorf("input register %s has no buffer", d.reg))
				}
				bufs = append(bufs, buf)
				st.srcs = append(st.srcs, linSrc{slot: -1, buf: buf, off: d.view.Offset})
			}
		}
		steps = append(steps, st)
	}
	pReg := plan.red.In1.Reg
	if !plan.mat[pReg] {
		return steps, plan.pSlot, nil, 0, bufs, nil
	}
	pBuf, err := m.regs.ensure(p, pReg)
	if err != nil {
		return nil, 0, nil, 0, nil, instrErr(p, plan.redIdx, err)
	}
	return steps, -1, pBuf, plan.red.In1.View.Offset, bufs, nil
}

// newLinScratch allocates one worker's scratch set: a fusedBlockSize
// buffer per virtual register. Scratch lives outside the register file,
// so it never touches the BuffersAllocated/pool counters — that is the
// "no materialized temporary" the epilogue promises.
func newLinScratch(plan *epiPlan) []tensor.Buffer {
	scratch := make([]tensor.Buffer, plan.nSlots)
	for s, dt := range plan.slotDT {
		scratch[s] = tensor.MustBuffer(dt, fusedBlockSize)
	}
	return scratch
}

// linKernel is one producer step's run kernel, type-erased: run applies
// it to the flat element block [gLo, gHi), resolving the step's scratch
// slots and buffer windows to typed slices. It fails only when a buffer's
// storage type is not the step's, which a run over the empty block
// detects before any goroutine starts.
type linKernel interface {
	run(st *linStep, scratch []tensor.Buffer, gLo, gHi int) error
}

// newLinKernel compiles a producer step's kernel, or returns nil when the
// op has none.
func newLinKernel(dt tensor.DType, op bytecode.Opcode, srcs []ksrc) linKernel {
	switch dt {
	case tensor.Float64:
		return linKernelOf[float64](dt, op, srcs)
	case tensor.Float32:
		return linKernelOf[float32](dt, op, srcs)
	case tensor.Int64:
		return linKernelOf[int64](dt, op, srcs)
	case tensor.Int32:
		return linKernelOf[int32](dt, op, srcs)
	case tensor.Bool, tensor.Uint8:
		return linKernelOf[uint8](dt, op, srcs)
	}
	return nil
}

func linKernelOf[T tensor.Elem](dt tensor.DType, op bytecode.Opcode, srcs []ksrc) linKernel {
	k, ok := compileLoop[T](dt, op, srcs)
	if !ok {
		return nil
	}
	return typedLinKernel[T](k)
}

type typedLinKernel[T tensor.Elem] kernel[T, T]

func (k typedLinKernel[T]) run(st *linStep, scratch []tensor.Buffer, gLo, gHi int) error {
	n := gHi - gLo
	var dst []T
	if st.dstSlot >= 0 {
		raw, ok := tensor.RawSlice[T](scratch[st.dstSlot])
		if !ok {
			return fmt.Errorf("scratch slot %d is not %v", st.dstSlot, st.dtype)
		}
		dst = raw[:n]
	} else {
		raw, ok := tensor.RawSlice[T](st.dstBuf)
		if !ok {
			return fmt.Errorf("fused output is not %v", st.dtype)
		}
		dst = raw[st.dstOff+gLo : st.dstOff+gHi]
	}
	var in [2][]T
	for i, s := range st.srcs {
		switch {
		case s.isConst:
		case s.slot >= 0:
			raw, ok := tensor.RawSlice[T](scratch[s.slot])
			if !ok {
				return fmt.Errorf("scratch slot %d is not %v", s.slot, st.dtype)
			}
			in[i] = raw[:n]
		default:
			raw, ok := tensor.RawSlice[T](s.buf)
			if !ok {
				return fmt.Errorf("fused input is not %v", st.dtype)
			}
			in[i] = raw[s.off+gLo : s.off+gHi]
		}
	}
	k(dst, in[0], in[1])
	return nil
}

// runLinBlock executes every producer step over the flat block [gLo, gHi).
// Type errors were ruled out by the up-front validation pass.
func runLinBlock(steps []linStep, scratch []tensor.Buffer, gLo, gHi int) {
	for i := range steps {
		_ = steps[i].kern.run(&steps[i], scratch, gLo, gHi)
	}
}

// foldBlockFloat folds buf[lo:hi) into acc in element order with the
// float64-class kernel, widening each element exactly as Buffer.Get does.
func foldBlockFloat(buf tensor.Buffer, lo, hi int, k func(a, b float64) float64, acc float64) float64 {
	switch b := buf.(type) {
	case *tensor.Data[float64]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, v)
		}
	case *tensor.Data[float32]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, float64(v))
		}
	case *tensor.Data[int64]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, float64(v))
		}
	case *tensor.Data[int32]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, float64(v))
		}
	case *tensor.Data[uint8]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, float64(v))
		}
	}
	return acc
}

// foldBlockInt is foldBlockFloat for the exact int64 class.
func foldBlockInt(buf tensor.Buffer, lo, hi int, k func(a, b int64) int64, acc int64) int64 {
	switch b := buf.(type) {
	case *tensor.Data[int64]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, v)
		}
	case *tensor.Data[int32]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, int64(v))
		}
	case *tensor.Data[uint8]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, int64(v))
		}
	case *tensor.Data[float64]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, int64(v))
		}
	case *tensor.Data[float32]:
		for _, v := range b.Raw()[lo:hi] {
			acc = k(acc, int64(v))
		}
	}
	return acc
}

// tryLinearEpilogue runs the folded sweep over contiguous operands with
// blockwise vectorized producer loops. Returns (false, nil) when the
// reduction output aliases a producer buffer.
func (m *Machine) tryLinearEpilogue(p *bytecode.Program, plan *epiPlan, outBuf tensor.Buffer) (bool, error) {
	steps, pSlot, pBuf, pOff, bufs, err := m.resolveLinSteps(p, plan)
	if err != nil {
		return false, err
	}
	for _, buf := range bufs {
		if buf == outBuf {
			return false, nil
		}
	}
	// Validate every step has a kernel for its buffers' storage types
	// before any goroutine runs.
	scratch0 := newLinScratch(plan)
	for i := range steps {
		st := &steps[i]
		if st.kern == nil {
			return false, instrErr(p, st.index, fmt.Errorf("no compiled loop for %s", st.op))
		}
		if err := st.kern.run(st, scratch0, 0, 0); err != nil {
			return false, instrErr(p, st.index, err)
		}
	}

	m.countEpilogueStats(p, plan)
	strategy := m.sweepStrategyFor(plan.red.Out.View, plan.lines, plan.axLen)
	base, _ := plan.red.Op.ReduceBase()
	if plan.intRed {
		k, ok := intBinaryKernel(base)
		if !ok {
			return false, instrErr(p, plan.redIdx, fmt.Errorf("no int kernel for %s", base))
		}
		runLinEpilogue(m, plan, steps, scratch0, pSlot, pBuf, pOff, strategy, outBuf,
			k, tensor.Buffer.GetInt, tensor.Buffer.SetInt, foldBlockInt)
		return true, nil
	}
	k, ok := floatBinaryKernel(base)
	if !ok {
		return false, instrErr(p, plan.redIdx, fmt.Errorf("no kernel for %s", base))
	}
	runLinEpilogue(m, plan, steps, scratch0, pSlot, pBuf, pOff, strategy, outBuf,
		k, tensor.Buffer.Get, tensor.Buffer.Set, foldBlockFloat)
	return true, nil
}

// linOutIndexer maps a line number to its output buffer index.
func linOutIndexer(plan *epiPlan) func(l int) int {
	if !plan.outSeek {
		off := plan.red.Out.View.Offset
		return func(int) int { return off }
	}
	cur := newCursor(plan.red.Out.View)
	dims := plan.lineDims
	return func(l int) int {
		cur.seek(dims, l)
		return cur.idx
	}
}

// runLinEpilogue drives the blockwise fold with the chosen strategy.
// Every fold visits its line (or chunk) elements strictly in order, so
// the result is bit-identical to the two-sweep path under the same
// strategy, and — as in reduce.go — independent of the worker count.
func runLinEpilogue[E int64 | float64](m *Machine, plan *epiPlan, steps []linStep, scratch0 []tensor.Buffer,
	pSlot int, pBuf tensor.Buffer, pOff int, strategy sweepStrategy, out tensor.Buffer,
	k func(a, b E) E, get func(tensor.Buffer, int) E, set func(tensor.Buffer, int, E),
	fold func(tensor.Buffer, int, int, func(a, b E) E, E) E) {

	lines, axLen := plan.lines, plan.axLen

	// foldRange folds the producer values of flat elements
	// [gLo, gLo+n) in order. seeded reports whether acc already holds a
	// value; the first element otherwise seeds the fold, exactly like the
	// first-element-seeded folds of reduce.go.
	foldRange := func(scratch []tensor.Buffer, gLo, n int, acc E, seeded bool) E {
		runLinBlock(steps, scratch, gLo, gLo+n)
		buf, lo := pBuf, pOff+gLo
		if pSlot >= 0 {
			buf, lo = scratch[pSlot], 0
		}
		if !seeded {
			acc = get(buf, lo)
			return fold(buf, lo+1, lo+n, k, acc)
		}
		return fold(buf, lo, lo+n, k, acc)
	}

	// foldSpan folds one contiguous span [start, end) of a line in
	// blockwise sub-ranges, preserving element order.
	foldSpan := func(scratch []tensor.Buffer, lineBase, start, end int) E {
		var acc E
		for b := start; b < end; b += fusedBlockSize {
			bh := b + fusedBlockSize
			if bh > end {
				bh = end
			}
			acc = foldRange(scratch, lineBase+b, bh-b, acc, b > start)
		}
		return acc
	}

	outIdx := linOutIndexer(plan)

	// processLines folds whole lines [lLo, lHi). Short lines share one
	// producer block; long lines split into sub-blocks.
	processLines := func(scratch []tensor.Buffer, oi func(int) int, lLo, lHi int) {
		if axLen >= fusedBlockSize {
			for l := lLo; l < lHi; l++ {
				set(out, oi(l), foldSpan(scratch, l*axLen, 0, axLen))
			}
			return
		}
		perBlock := fusedBlockSize / axLen
		for lb := lLo; lb < lHi; lb += perBlock {
			le := lb + perBlock
			if le > lHi {
				le = lHi
			}
			runLinBlock(steps, scratch, lb*axLen, le*axLen)
			for l := lb; l < le; l++ {
				buf, base := pBuf, pOff+l*axLen
				if pSlot >= 0 {
					buf, base = scratch[pSlot], (l-lb)*axLen
				}
				acc := get(buf, base)
				acc = fold(buf, base+1, base+axLen, k, acc)
				set(out, oi(l), acc)
			}
		}
	}

	switch strategy {
	case sweepSplitOutputs:
		m.par.parallelFor(lines, 2, func(lo, hi int) {
			processLines(newLinScratch(plan), linOutIndexer(plan), lo, hi)
		})
	case sweepChunkAxis:
		size, nc := chunkParams(axLen)
		partials := make([]E, nc)
		for l := 0; l < lines; l++ {
			base := l * axLen
			m.par.parallelFor(nc, 2, func(cLo, cHi int) {
				scratch := newLinScratch(plan)
				for c := cLo; c < cHi; c++ {
					start, end := chunkBounds(c, size, axLen)
					partials[c] = foldSpan(scratch, base, start, end)
				}
			})
			acc := partials[0]
			for c := 1; c < nc; c++ {
				acc = k(acc, partials[c])
			}
			set(out, outIdx(l), acc)
		}
	default:
		processLines(scratch0, outIdx, 0, lines)
	}
}
