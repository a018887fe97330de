package vm

import (
	"fmt"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// A fold nest (runFold) runs its reduction or scan under one of three
// strategies, sized against Config.ParallelThreshold:
//
//   - sweepSerial: one worker folds the lines in order — small inputs.
//   - sweepSplitOutputs: many lines; whole lines are split across the
//     worker pool. Each line's fold is the exact serial fold, so results
//     are bitwise identical to serial for every dtype.
//   - sweepChunkAxis: few lines over a long axis (SumAll and friends).
//     Each line is cut into fixed-size chunks; workers fold chunks into
//     partial accumulators (reductions, and the first pass of the classic
//     chunk-scan / offset-propagate / rescan three-pass for scans), and
//     partials combine serially in chunk order.
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
