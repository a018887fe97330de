package vm

import (
	"fmt"
	"slices"
	"sort"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Fusion clusters consecutive elementwise byte-codes into one sweep over
// their shared iteration space — this reproduction's substitute for the
// OpenCL kernel JIT: where Bohrium emits one kernel source for a fusible
// batch, we emit one fused Go loop.
//
// Two byte-codes may share a sweep when:
//   - both are elementwise and each instruction's register operands all
//     share one dtype (any supported dtype; steps of *different* dtypes
//     may still share a cluster — each step compiles its own typed loop),
//   - their result views share one iteration shape (inputs may broadcast
//     into it), the result view addresses each element at most once, and
//   - every register they share is addressed through the *same* view in
//     both (otherwise element i of one is element j≠i of the other, and
//     per-element interleaving would reorder a cross-element dependence).
//     One exception closes a cluster: a write that aliases earlier reads
//     only through pure translations of its view joins as a lagged store.
//
// Every cluster — and every single elementwise instruction, fusion on or
// off — compiles to one loop nest (nest.go), which keeps dead temporaries
// in row scratch. A reduction that consumes the cluster's output extends
// the cluster as an epilogue: the nest's last step folds the producers'
// runs (foldStep), likewise without them. System byte-codes, other
// reductions, extensions, and RANDOM end a cluster.

// cluster is a run of instruction indices executable as one sweep.
type cluster struct {
	start, end int // [start, end) in p.Instrs
	fused      bool
	sweep      bool         // elementwise: compiles to a loop nest
	shape      tensor.Shape // shared iteration shape of a sweep
	lagged     *nest        // p.Instrs[end-1] is a closing write: the kernel-free nest that stores it lagged
}

// planClusters splits the program into sweeps. With fusion off every
// instruction is its own cluster.
func (m *Machine) planClusters(p *bytecode.Program, live *liveness) []cluster {
	var out []cluster
	var acc accessTracker
	i := 0
	for i < len(p.Instrs) {
		shape, kind := sweepAt(p, i)
		if kind != sweepFusible || !m.cfg.Fusion {
			out = append(out, cluster{start: i, end: i + 1, sweep: kind != sweepNone, shape: shape})
			i++
			continue
		}
		// Extend the cluster while the next instruction is fusible over
		// the same iteration shape and no write view conflicts with any
		// other access of the same register.
		acc.reset()
		acc.record(&p.Instrs[i])
		j := i + 1
		var lagged *nest
		for j < len(p.Instrs) && lagged == nil {
			shape2, kind2 := sweepAt(p, j)
			if kind2 != sweepFusible || !shape2.Equal(shape) {
				break
			}
			span, ok := acc.admit(&p.Instrs[j])
			if !ok {
				break
			}
			if span != (lagSpan{}) {
				// A closing write: it joins if the nest can store it lagged,
				// and nothing may follow it.
				if lagged = layoutNest(p, i, j+1, shape, live, &span); lagged == nil {
					break
				}
			}
			acc.record(&p.Instrs[j])
			j++
		}
		cl := cluster{start: i, end: j, fused: j-i > 1, sweep: true, shape: shape, lagged: lagged}
		if lagged == nil && j < len(p.Instrs) && reduceEpilogueAt(p, cl, j) {
			cl.end, cl.fused = j+1, true
			j++
		}
		out = append(out, cl)
		i = j
	}
	return out
}

// sweepKind classifies an instruction for nest execution.
type sweepKind int

const (
	// sweepNone: not an elementwise sweep the nest can run (system,
	// reduction, extension and generator byte-codes; promoted mixed-dtype
	// operands; non-injective results; a misaligned self-overlap). The
	// interpreter executes it.
	sweepNone sweepKind = iota
	// sweepCast: BH_IDENTITY between registers of different dtypes. It
	// runs as a nest of its own but never shares a cluster.
	sweepCast
	// sweepFusible: every register operand shares the result's dtype.
	sweepFusible
)

// sweepAt classifies instruction i, returning its iteration shape.
func sweepAt(p *bytecode.Program, i int) (tensor.Shape, sweepKind) {
	in := &p.Instrs[i]
	if !in.Op.Elementwise() || in.In1.Kind == bytecode.OperandNone {
		return nil, sweepNone
	}
	if !in.Out.IsReg() || !viewInjective(in.Out.View) {
		return nil, sweepNone
	}
	ri, ok := p.Reg(in.Out.Reg)
	if !ok || !ri.DType.Valid() {
		return nil, sweepNone
	}
	kind := sweepFusible
	shape := in.Out.View.Shape
	for _, opnd := range [2]*bytecode.Operand{&in.In1, &in.In2} {
		if !opnd.IsReg() {
			continue
		}
		si, ok := p.Reg(opnd.Reg)
		if !ok || !si.DType.Valid() {
			return nil, sweepNone
		}
		if si.DType != ri.DType {
			// Promoted operands keep the accessor path, which defines the
			// conversion semantics; only the plain cast has typed kernels.
			if in.Op != bytecode.OpIdentity {
				return nil, sweepNone
			}
			kind = sweepCast
		}
		if !opnd.View.Shape.BroadcastableTo(shape) {
			return nil, sweepNone
		}
		// A misaligned self-overlap needs the snapshot the interpreter
		// takes; keep such instructions out of nests.
		if opnd.Reg == in.Out.Reg && !opnd.View.Equal(in.Out.View) && opnd.View.Overlaps(in.Out.View) {
			return nil, sweepNone
		}
	}
	return shape, kind
}

// reduceEpilogueAt reports whether the reduction at index j can close the
// preceding elementwise cluster cl as its nest's fold step. The legal
// shape: a reduction over any axis — including the argmin/argmax index
// reductions, whose fold carries a (value, index) pair — of a non-empty
// input that is a register the cluster wrote, through exactly the window
// of the cluster's final write, into one output element per line of an
// output register the cluster does not write. The nest puts the reduced
// axis innermost, so it walks the lines in the row-major order the
// interpreted two-sweep path does, and no axis is special. Buffer-level
// aliasing between the reduction output and the producers' operands is
// checked at execution time (runNest falls back to two sweeps).
func reduceEpilogueAt(p *bytecode.Program, cl cluster, j int) bool {
	in := &p.Instrs[j]
	if in.Op.Info().Kind != bytecode.KindReduction {
		return false
	}
	if _, ok := in.Op.ReduceBase(); !ok && !in.Op.ArgReduce() {
		return false
	}
	if !in.In1.IsReg() || !in.Out.IsReg() {
		return false
	}
	nd := in.In1.View.NDim()
	if nd == 0 || in.Axis < 0 || in.Axis >= nd {
		return false
	}
	// An empty input stays with the interpreter (an empty axis takes its
	// identity-fill path).
	if size := cl.shape.Size(); size == 0 || !in.In1.View.Shape.Equal(cl.shape) || in.Out.View.Size() != size/cl.shape[in.Axis] {
		return false
	}
	lastWrite := -1
	for k := cl.start; k < cl.end; k++ {
		if p.Instrs[k].Out.Reg == in.In1.Reg {
			lastWrite = k
		}
	}
	if lastWrite < 0 || !p.Instrs[lastWrite].Out.View.Equal(in.In1.View) {
		return false
	}
	// The output register must be untouched by the cluster: the fold
	// writes it line by line while producer steps still evaluate.
	for k := cl.start; k < cl.end; k++ {
		if p.Instrs[k].Out.Reg == in.Out.Reg {
			return false
		}
	}
	return in.Out.Reg != in.In1.Reg
}

// accessTracker records the read and write views of every register
// inside a cluster. A nest runs its steps in order over each row (or
// block of a row), so the only cross-element hazard is a register accessed through
// two views where the same buffer slot maps to different iteration
// indices — i.e. a WRITE view overlapping any other non-equal view.
// Overlapping reads (the stencil's north/south/east/west windows) are
// always safe; admit names the one write that may overlap them.
type accessTracker struct {
	accs []regAccess
}

// regAccess is one distinct (register, view, direction) access; view
// points into the program being planned.
type regAccess struct {
	reg   bytecode.RegID
	view  *tensor.View
	write bool
}

func (a *accessTracker) reset() { a.accs = a.accs[:0] }

func (a *accessTracker) record(in *bytecode.Instruction) {
	a.add(in.Out.Reg, &in.Out.View, true)
	for _, opnd := range [2]*bytecode.Operand{&in.In1, &in.In2} {
		if opnd.IsReg() {
			a.add(opnd.Reg, &opnd.View, false)
		}
	}
}

func (a *accessTracker) add(reg bytecode.RegID, view *tensor.View, write bool) {
	for i := range a.accs {
		if ac := &a.accs[i]; ac.reg == reg && ac.write == write && ac.view.Equal(*view) {
			return // an in-place chain repeats one access per step
		}
	}
	a.accs = append(a.accs, regAccess{reg, view, write})
}

// admit reports whether in may join the cluster. A non-zero lagSpan means
// its write aliases earlier *reads* of its register, each through a pure
// translation of the write view (same shape and strides, another offset):
// in may then only close the cluster, if the nest can store it lagged.
func (a *accessTracker) admit(in *bytecode.Instruction) (lagSpan, bool) {
	w := in.Out.View
	var span lagSpan
	for i := range a.accs {
		ac := &a.accs[i]
		// The candidate's write must not alias an earlier write through a
		// different window, nor an earlier read unless translated.
		if ac.reg == in.Out.Reg && !w.Equal(*ac.view) && w.Overlaps(*ac.view) {
			if ac.write || !ac.view.Shape.Equal(w.Shape) || !slices.Equal(ac.view.Strides, w.Strides) {
				return span, false
			}
			span.back = max(span.back, w.Offset-ac.view.Offset)
			span.ahead = max(span.ahead, ac.view.Offset-w.Offset)
		}
		if !ac.write {
			continue
		}
		// The candidate's reads must not alias any earlier write through a
		// different window.
		for _, opnd := range [2]*bytecode.Operand{&in.In1, &in.In2} {
			if opnd.IsReg() && opnd.Reg == ac.reg && !opnd.View.Equal(*ac.view) && opnd.View.Overlaps(*ac.view) {
				return span, false
			}
		}
	}
	return span, true
}

// fusedBlockSize is the tile width (in elements) of fused sweeps: each step's
// loop runs over one block before the next step touches it — the locality a
// JIT kernel gets, without per-element dispatch. 8192 float64s = 64 KiB: more
// than a 32-48 KiB L1d, so a full block lives in L2; shorter rows stay in L1.
const fusedBlockSize = 8192

// instrErr annotates err with the index and disassembly of the failing
// instruction. The cause is wrapped (%w, identical text) so typed
// sentinels like ErrMemoryPressure survive to errors.Is at the host.
func instrErr(p *bytecode.Program, i int, err error) error {
	return fmt.Errorf("instr %d (%s): %w", i, p.Instrs[i].String(), err)
}

// countFusedDTypes attributes the instructions in [start, end) to the
// per-dtype fused counters by their output register's dtype.
func (m *Machine) countFusedDTypes(p *bytecode.Program, start, end int) {
	for i := start; i < end; i++ {
		if ri, ok := p.Reg(p.Instrs[i].Out.Reg); ok {
			m.stats.addDType(ri.DType, 1)
		}
	}
}

// viewInjective conservatively reports whether a view addresses each
// buffer element at most once — required for the result view of a
// chunk-parallel sweep. The sufficient condition: sorting dims by
// |stride|, each stride must exceed the maximum span of the dims below it.
func viewInjective(v tensor.View) bool {
	if v.Contiguous() {
		return true
	}
	type ds struct{ stride, extent int }
	dims := make([]ds, 0, v.NDim())
	for d := 0; d < v.NDim(); d++ {
		if v.Shape[d] == 1 {
			continue // singleton dims address one point regardless of stride
		}
		s := v.Strides[d]
		if s < 0 {
			s = -s
		}
		if s == 0 {
			return false // repeated writes to the same element
		}
		dims = append(dims, ds{stride: s, extent: v.Shape[d]})
	}
	sort.Slice(dims, func(i, j int) bool { return dims[i].stride < dims[j].stride })
	span := 0
	for _, d := range dims {
		if d.stride <= span {
			return false
		}
		span += (d.extent - 1) * d.stride
	}
	return true
}
