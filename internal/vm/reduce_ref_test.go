package vm

import (
	"fmt"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// The accessor reduce/scan engine the VM ran before every reduction and
// scan became a fold nest: one function value call per element through
// Buffer.Get/Set, under the strategies of sweepStrategyFor with the chunk
// bounds of chunkParams. It is the reference the fold nests are held
// against, bit for bit (refInterpret).

// refInterpret runs instructions [start, end) of p one at a time under k,
// the constant vector from instruction start's first constant on: each
// elementwise instruction through the accessor interpreter (exec_ref_test.go),
// each reduction and scan through the accessor engine, system and extension
// byte-codes as Plan.Execute runs them. It is the oracle of every
// differential suite.
func (m *Machine) refInterpret(p *bytecode.Program, start, end int, k []bytecode.Constant) error {
	for i := start; i < end; i++ {
		in := &p.Instrs[i]
		var err error
		switch in.Op.Info().Kind {
		case bytecode.KindReduction:
			err = m.execReduce(p, in)
		case bytecode.KindScan:
			err = m.execScan(p, in)
		case bytecode.KindGenerator, bytecode.KindUnary, bytecode.KindBinary:
			err = m.execRef(p, in, k)
		default:
			err = m.exec(p, in)
		}
		if err != nil {
			return instrErr(p, i, err)
		}
		k = k[constCount(in):]
	}
	return nil
}

// runRef parses src and runs it on a machine of configuration cfg through
// refInterpret, one instruction at a time: the reference run.
func runRef(t *testing.T, cfg Config, src string) *Machine {
	t.Helper()
	p, err := bytecode.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(cfg)
	t.Cleanup(m.Close)
	m.regs.grow(len(p.Regs))
	if err := m.refInterpret(p, 0, len(p.Instrs), p.Constants()); err != nil {
		t.Fatal(err)
	}
	return m
}

// removeAxis drops one dimension from a view, returning the reduced view
// plus the dropped dimension's stride and extent.
func removeAxis(v tensor.View, axis int) (reduced tensor.View, stride, extent int) {
	shape := make(tensor.Shape, 0, v.NDim()-1)
	strides := make([]int, 0, v.NDim()-1)
	for d := 0; d < v.NDim(); d++ {
		if d == axis {
			continue
		}
		shape = append(shape, v.Shape[d])
		strides = append(strides, v.Strides[d])
	}
	reduced = tensor.View{Offset: v.Offset, Shape: shape, Strides: strides}
	return reduced, v.Strides[axis], v.Shape[axis]
}

// execReduce folds the input along one axis with the reduction's base
// binary op, seeding the fold with the first element (so MIN/MAX need no
// dtype-dependent identity). The index reductions (argmin/argmax) fold a
// (value, index) pair instead, which is why they have no ReduceBase; their
// comparison class follows the *input* dtype — the output is always an
// index.
func (m *Machine) execReduce(p *bytecode.Program, in *bytecode.Instruction) error {
	base, ok := in.Op.ReduceBase()
	if !ok && !in.Op.ArgReduce() {
		return fmt.Errorf("%s is not a reduction", in.Op)
	}
	outBuf, err := m.regs.ensure(p, in.Out.Reg)
	if err != nil {
		return err
	}
	srcBuf := m.regs.get(in.In1.Reg)
	if srcBuf == nil {
		return fmt.Errorf("input register %s has no buffer", in.In1.Reg)
	}
	srcView := in.In1.View
	reduced, axStride, axLen := removeAxis(srcView, in.Axis)

	m.stats.instructions.Add(1)
	m.stats.sweeps.Add(1)
	m.stats.elements.Add(int64(srcView.Size()))

	if axLen == 0 {
		if !ok {
			// There is no index of an empty axis's extreme — same failure
			// mode as MIN/MAX.
			return fmt.Errorf("%s reduction over empty axis has no identity", in.Op)
		}
		return fillReduceIdentity(base, outBuf, in.Out.View)
	}

	outView := in.Out.View
	strategy := m.sweepStrategyFor(outView, outView.Size(), axLen)
	if outBuf == srcBuf && strategy == sweepSplitOutputs {
		// The output aliases the source buffer: splitting the output sweep
		// would let one worker's writes race other workers' source reads.
		// The chunked path keeps the serial write order (outputs written
		// one at a time between read-only parallel phases), so only the
		// split demotes.
		strategy = sweepSerial
	}

	argmax := in.Op == bytecode.OpArgmaxReduce
	switch {
	case !ok && !srcBuf.DType().IsFloat():
		runArgReduce(m.par, strategy, argBetter[int64](argmax), tensor.Buffer.GetInt,
			outBuf, srcBuf, outView, reduced, axStride, axLen)
	case !ok:
		runArgReduce(m.par, strategy, argBetter[float64](argmax), tensor.Buffer.Get,
			outBuf, srcBuf, outView, reduced, axStride, axLen)
	case !outBuf.DType().IsFloat() && !srcBuf.DType().IsFloat():
		k, ok := intBinaryKernel(base)
		if !ok {
			return fmt.Errorf("no int kernel for %s", base)
		}
		runReduce(m.par, strategy, k, tensor.Buffer.GetInt, tensor.Buffer.SetInt,
			outBuf, srcBuf, outView, reduced, axStride, axLen)
	default:
		k, ok := floatBinaryKernel(base)
		if !ok {
			return fmt.Errorf("no kernel for %s", base)
		}
		runReduce(m.par, strategy, k, tensor.Buffer.Get, tensor.Buffer.Set,
			outBuf, srcBuf, outView, reduced, axStride, axLen)
	}
	return nil
}

// runReduce executes one reduction with the chosen strategy; get/set are
// Buffer method expressions selecting the computation class.
func runReduce[E int64 | float64](pool parRunner, strategy sweepStrategy, k func(a, b E) E,
	get func(tensor.Buffer, int) E, set func(tensor.Buffer, int, E),
	out, src tensor.Buffer, outView, reduced tensor.View, axStride, axLen int) {

	fold := func(io, is int) {
		acc := get(src, is)
		for j := 1; j < axLen; j++ {
			acc = k(acc, get(src, is+j*axStride))
		}
		set(out, io, acc)
	}
	switch strategy {
	case sweepSplitOutputs:
		pool.parallelFor(outView.Size(), 2, func(lo, hi int) {
			zipIndicesRange(outView, reduced, lo, hi, fold)
		})
	case sweepChunkAxis:
		chunkReduce(pool, k, get, set, out, src, outView, reduced, axStride, axLen)
	default:
		zipIndices(outView, reduced, fold)
	}
}

// runArgReduce executes one index reduction with the chosen strategy.
// The chunked strategy is exact (unlike float chunkReduce): chunk
// partials carry their global winning index, and combining them in chunk
// order with the same comparison reproduces the serial scan's winner —
// comparisons do not re-associate the way float arithmetic does.
func runArgReduce[E int64 | float64](pool parRunner, strategy sweepStrategy,
	better func(v, best E) bool, get func(tensor.Buffer, int) E,
	out, src tensor.Buffer, outView, reduced tensor.View, axStride, axLen int) {

	fold := func(io, is int) {
		best := get(src, is)
		bestIdx := 0
		for j := 1; j < axLen; j++ {
			if v := get(src, is+j*axStride); better(v, best) {
				best, bestIdx = v, j
			}
		}
		out.SetInt(io, int64(bestIdx))
	}
	switch strategy {
	case sweepSplitOutputs:
		pool.parallelFor(outView.Size(), 2, func(lo, hi int) {
			zipIndicesRange(outView, reduced, lo, hi, fold)
		})
	case sweepChunkAxis:
		size, nc := chunkParams(axLen)
		vals := make([]E, nc)
		idxs := make([]int, nc)
		zipIndices(outView, reduced, func(io, is int) {
			pool.parallelFor(nc, 2, func(lo, hi int) {
				for c := lo; c < hi; c++ {
					start, end := chunkBounds(c, size, axLen)
					best := get(src, is+start*axStride)
					bestIdx := start
					for j := start + 1; j < end; j++ {
						if v := get(src, is+j*axStride); better(v, best) {
							best, bestIdx = v, j
						}
					}
					vals[c], idxs[c] = best, bestIdx
				}
			})
			best, bestIdx := vals[0], idxs[0]
			for c := 1; c < nc; c++ {
				if better(vals[c], best) {
					best, bestIdx = vals[c], idxs[c]
				}
			}
			out.SetInt(io, int64(bestIdx))
		})
	default:
		zipIndices(outView, reduced, fold)
	}
}

// chunkReduce is the two-phase reduction: workers fold fixed axis chunks
// into partial accumulators, then the partials combine serially in chunk
// order. get/set are Buffer method expressions selecting the computation
// class. Integer kernels are associative, so the int64 instantiation is
// bitwise identical to the serial fold; the float64 instantiation
// re-associates the fold, carrying reassociation error relative to the
// serial strategy but staying identical across worker counts.
func chunkReduce[E int64 | float64](pool parRunner, k func(a, b E) E,
	get func(tensor.Buffer, int) E, set func(tensor.Buffer, int, E),
	out, src tensor.Buffer, outView, reduced tensor.View, axStride, axLen int) {

	size, nc := chunkParams(axLen)
	partials := make([]E, nc)
	zipIndices(outView, reduced, func(io, is int) {
		pool.parallelFor(nc, 2, func(lo, hi int) {
			for c := lo; c < hi; c++ {
				start, end := chunkBounds(c, size, axLen)
				acc := get(src, is+start*axStride)
				for j := start + 1; j < end; j++ {
					acc = k(acc, get(src, is+j*axStride))
				}
				partials[c] = acc
			}
		})
		acc := partials[0]
		for c := 1; c < nc; c++ {
			acc = k(acc, partials[c])
		}
		set(out, io, acc)
	})
}

// execScan computes the running fold (prefix sums/products) along one
// axis, writing every prefix.
func (m *Machine) execScan(p *bytecode.Program, in *bytecode.Instruction) error {
	base, ok := in.Op.ReduceBase()
	if !ok {
		return fmt.Errorf("%s is not a scan", in.Op)
	}
	outBuf, err := m.regs.ensure(p, in.Out.Reg)
	if err != nil {
		return err
	}
	srcBuf := m.regs.get(in.In1.Reg)
	if srcBuf == nil {
		return fmt.Errorf("input register %s has no buffer", in.In1.Reg)
	}
	srcView := in.In1.View
	reducedIn, inStride, axLen := removeAxis(srcView, in.Axis)
	reducedOut, outStride, _ := removeAxis(in.Out.View, in.Axis)

	m.stats.instructions.Add(1)
	m.stats.sweeps.Add(1)
	m.stats.elements.Add(int64(srcView.Size()))

	if axLen == 0 {
		// A scan over an empty axis has no output elements.
		return nil
	}

	lines := reducedOut.Size()
	strategy := m.sweepStrategyFor(in.Out.View, lines, axLen)
	if outBuf == srcBuf && !in.Out.View.Equal(srcView) && strategy != sweepSerial {
		// Misaligned self-overlap: a parallel scan would write slots other
		// workers are still reading. An aligned in-place scan (equal
		// views) stays parallel — every line/chunk only reads slots it
		// writes itself.
		strategy = sweepSerial
	}

	if !outBuf.DType().IsFloat() && !srcBuf.DType().IsFloat() {
		k, ok := intBinaryKernel(base)
		if !ok {
			return fmt.Errorf("no int kernel for %s", base)
		}
		runScan(m.par, strategy, k, tensor.Buffer.GetInt, tensor.Buffer.SetInt,
			outBuf, srcBuf, reducedOut, reducedIn, outStride, inStride, axLen)
		return nil
	}
	k, ok := floatBinaryKernel(base)
	if !ok {
		return fmt.Errorf("no kernel for %s", base)
	}
	runScan(m.par, strategy, k, tensor.Buffer.Get, tensor.Buffer.Set,
		outBuf, srcBuf, reducedOut, reducedIn, outStride, inStride, axLen)
	return nil
}

// runScan executes one scan with the chosen strategy; get/set are Buffer
// method expressions selecting the computation class.
func runScan[E int64 | float64](pool parRunner, strategy sweepStrategy, k func(a, b E) E,
	get func(tensor.Buffer, int) E, set func(tensor.Buffer, int, E),
	out, src tensor.Buffer, reducedOut, reducedIn tensor.View, outStride, inStride, axLen int) {

	scanLine := func(io, is int) {
		acc := get(src, is)
		set(out, io, acc)
		for j := 1; j < axLen; j++ {
			acc = k(acc, get(src, is+j*inStride))
			set(out, io+j*outStride, acc)
		}
	}
	switch strategy {
	case sweepSplitOutputs:
		pool.parallelFor(reducedOut.Size(), 2, func(lo, hi int) {
			zipIndicesRange(reducedOut, reducedIn, lo, hi, scanLine)
		})
	case sweepChunkAxis:
		chunkScan(pool, k, get, set, out, src, reducedOut, reducedIn, outStride, inStride, axLen)
	default:
		zipIndices(reducedOut, reducedIn, scanLine)
	}
}

// chunkScan runs the classic three-pass parallel scan per line: workers
// fold each fixed axis chunk to a total (pass 1), a serial sweep turns the
// totals into exclusive per-chunk offsets (pass 2), and workers rescan each
// chunk seeded with its offset (pass 3). As with chunkReduce, the int64
// instantiation is bitwise identical to the serial scan and the float64
// instantiation carries reassociation tolerance.
func chunkScan[E int64 | float64](pool parRunner, k func(a, b E) E,
	get func(tensor.Buffer, int) E, set func(tensor.Buffer, int, E),
	out, src tensor.Buffer, reducedOut, reducedIn tensor.View, outStride, inStride, axLen int) {

	size, nc := chunkParams(axLen)
	totals := make([]E, nc)
	zipIndices(reducedOut, reducedIn, func(io, is int) {
		pool.parallelFor(nc, 2, func(lo, hi int) {
			for c := lo; c < hi; c++ {
				start, end := chunkBounds(c, size, axLen)
				acc := get(src, is+start*inStride)
				for j := start + 1; j < end; j++ {
					acc = k(acc, get(src, is+j*inStride))
				}
				totals[c] = acc
			}
		})
		// In-place exclusive prefix: totals[c] becomes the fold of chunks
		// [0, c). totals[0] is never read below.
		run := totals[0]
		for c := 1; c < nc; c++ {
			t := totals[c]
			totals[c] = run
			run = k(run, t)
		}
		pool.parallelFor(nc, 2, func(lo, hi int) {
			for c := lo; c < hi; c++ {
				start, end := chunkBounds(c, size, axLen)
				var acc E
				j := start
				if c == 0 {
					acc = get(src, is)
					set(out, io, acc)
					j = 1
				} else {
					acc = totals[c]
				}
				for ; j < end; j++ {
					acc = k(acc, get(src, is+j*inStride))
					set(out, io+j*outStride, acc)
				}
			}
		})
	})
}
