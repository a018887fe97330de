package vm

import (
	"fmt"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Reductions and scans pick one of three execution strategies, sized
// against Config.ParallelThreshold:
//
//   - sweepSerial: the original single-goroutine fold — small inputs.
//   - sweepSplitOutputs: many independent output positions; the output
//     sweep is split across the worker pool. Each output's fold is the
//     exact serial fold, so results are bitwise identical to serial for
//     every dtype.
//   - sweepChunkAxis: few outputs over a long axis (SumAll and friends).
//     The axis is cut into fixed-size chunks; workers fold chunks into
//     partial accumulators (reductions) or run the classic chunk-scan /
//     offset-propagate / rescan three-pass (scans), and partials combine
//     serially in chunk order.
//
// Strategy selection and chunk boundaries depend only on the views and the
// threshold — never on the worker count — so a Workers:1 machine and a
// Workers:N machine produce bit-equal results for every configuration.
// Integer folds are associative and therefore also bit-equal to the serial
// strategy. Float chunked folds re-associate the operation: results may
// differ from the serial strategy by normal floating-point reassociation
// error (on the order of axLen·ulp), which is the documented tolerance.
type sweepStrategy int

const (
	sweepSerial sweepStrategy = iota
	sweepSplitOutputs
	sweepChunkAxis
)

const (
	// reduceSplitMinOutputs is the minimum independent output count before
	// a reduction/scan parallelizes by splitting its output sweep; with
	// fewer outputs the axis-chunking strategy exposes more parallelism.
	reduceSplitMinOutputs = 128
	// reduceMinChunk/reduceMaxChunk bound the axis-chunk length for
	// chunked reductions and three-pass scans; reduceTargetChunks is the
	// chunk count the sizing aims for on long axes.
	reduceMinChunk     = 1 << 10
	reduceMaxChunk     = 1 << 14
	reduceTargetChunks = 64
)

// chunkParams returns the chunk length and chunk count for a chunked sweep
// over an axis of length axLen. Both derive only from axLen and constants —
// never from the worker count — so chunk boundaries (and float rounding)
// are identical at any Workers setting.
func chunkParams(axLen int) (size, n int) {
	size = (axLen + reduceTargetChunks - 1) / reduceTargetChunks
	if size < reduceMinChunk {
		size = reduceMinChunk
	}
	if size > reduceMaxChunk {
		size = reduceMaxChunk
	}
	return size, (axLen + size - 1) / size
}

// sweepStrategyFor selects the strategy for a reduction/scan whose total
// work crosses ParallelThreshold: split the output sweep when there are
// enough independent outputs, chunk the axis when it is long enough to cut
// into at least two chunks, serial otherwise (few outputs over a short
// axis — the residual band where fan-out overhead wins).
func (m *Machine) sweepStrategyFor(outView tensor.View, outSize, axLen int) sweepStrategy {
	if outSize*axLen < m.cfg.ParallelThreshold || !viewInjective(outView) {
		return sweepSerial
	}
	if outSize >= reduceSplitMinOutputs {
		return sweepSplitOutputs
	}
	if axLen >= 2*reduceMinChunk {
		return sweepChunkAxis
	}
	return sweepSerial
}

// chunkBounds returns axis range [start, end) of chunk c for chunks of the
// given size.
func chunkBounds(c, size, axLen int) (start, end int) {
	start = c * size
	end = start + size
	if end > axLen {
		end = axLen
	}
	return start, end
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
			tensor.ZipIndicesRange(outView, reduced, lo, hi, fold)
		})
	case sweepChunkAxis:
		chunkReduce(pool, k, get, set, out, src, outView, reduced, axStride, axLen)
	default:
		tensor.ZipIndices(outView, reduced, fold)
	}
}

// argBetter is the index reductions' comparison, NumPy's: the lowest
// index wins a tie (a later element must be strictly better), and the
// first NaN beats every number — once the carried value is NaN nothing
// displaces it (v<best and v>best are false when either is NaN; v != v
// only for a NaN).
func argBetter[E int64 | float64](argmax bool) func(v, best E) bool {
	if argmax {
		return func(v, best E) bool { return v > best || v != v && best == best }
	}
	return func(v, best E) bool { return v < best || v != v && best == best }
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
			tensor.ZipIndicesRange(outView, reduced, lo, hi, fold)
		})
	case sweepChunkAxis:
		size, nc := chunkParams(axLen)
		vals := make([]E, nc)
		idxs := make([]int, nc)
		tensor.ZipIndices(outView, reduced, func(io, is int) {
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
		tensor.ZipIndices(outView, reduced, fold)
	}
}

// fillReduceIdentity writes the reduction's identity to every output
// element, so Sum over an empty axis yields 0 and Prod yields 1 as NumPy
// does (likewise All→true, Any→false). MIN/MAX have no identity in the
// first-element-seeded scheme, so reducing them over an empty axis stays an
// error.
func fillReduceIdentity(base bytecode.Opcode, out tensor.Buffer, outView tensor.View) error {
	// The opcode table's HasIdentity/Identity describe right identities in
	// general, but every base ReduceBase can return (ADD, MULTIPLY, MIN,
	// MAX, LOGICAL_AND/OR) is commutative, so they coincide with the fold
	// identity here.
	info := base.Info()
	if !info.HasIdentity {
		return fmt.Errorf("%s reduction over empty axis has no identity", base)
	}
	it := tensor.NewIterator(outView)
	for it.Next() {
		out.Set(it.Index(), info.Identity)
	}
	return nil
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
	tensor.ZipIndices(outView, reduced, func(io, is int) {
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
			tensor.ZipIndicesRange(reducedOut, reducedIn, lo, hi, scanLine)
		})
	case sweepChunkAxis:
		chunkScan(pool, k, get, set, out, src, reducedOut, reducedIn, outStride, inStride, axLen)
	default:
		tensor.ZipIndices(reducedOut, reducedIn, scanLine)
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
	tensor.ZipIndices(reducedOut, reducedIn, func(io, is int) {
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
