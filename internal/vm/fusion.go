package vm

import (
	"cmp"
	"fmt"
	"slices"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Fusion clusters consecutive elementwise byte-codes into one sweep over
// their shared iteration space — this reproduction's substitute for the
// OpenCL kernel JIT: where Bohrium emits one kernel source for a fusible
// batch, we emit one fused Go loop.
//
// Two byte-codes may share a sweep when:
//   - both are elementwise, of any dtypes (each step compiles its own typed
//     loop),
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
// in row scratch. Generators (BH_RANGE, BH_RANDOM) are steps like any
// other: each computes its values from the row-major index of the element.
// So are casts and steps whose operands are of other dtypes than their
// result (promoted steps). A reduction that consumes the cluster's output
// extends the cluster as an epilogue: the nest's last step folds the
// producers' runs (foldStep), likewise without them. Every other
// reduction, and every scan, is a nest of its own: its only step folds (or
// scans) its input in the same kernels. So is an elementwise instruction
// whose result addresses an element twice, or that reads its own result
// through another overlapping window. A BH_FREE whose register no later
// step of the cluster touches joins it and runs after the sweep, so a
// batch that frees each temporary right after its last use fuses as one
// that frees them at the end. Other system byte-codes and extensions end a
// cluster; exec runs them. Plan.Execute runs every cluster one
// instruction at a time under bindings the plan was not compiled for.

// planClusters splits the program into clusters, in the machine's compile
// arena: each is a nest, laid out once for a sweep, or a system or
// extension byte-code, which has no steps (exec). With fusion off every
// instruction is its own cluster.
func (m *Machine) planClusters(p *bytecode.Program, live liveness) []nest {
	ar := &m.arena
	ar.clusters = ar.clusters[:0]
	k := 0
	for i := 0; i < len(p.Instrs); {
		shape, kind := sweepAt(p, i)
		fusible := kind == sweepFusible && m.cfg.Fusion
		j, laid := i+1, false
		ar.clusters = append(ar.clusters, nest{start: i, end: j})
		ns := &ar.clusters[len(ar.clusters)-1]
		// Extend a fusible cluster while the next instruction is fusible over
		// the same shape and no write view conflicts with another access of
		// its register. A closing write joins if the nest can store it lagged.
		// A BH_FREE joins on the way, to run after the sweep, when no later
		// step touches its register; trailing ones stay outside (end). A
		// closing reduction needs no check: reduceEpilogueAt refuses one
		// writing a register the cluster names, and a valid program reads
		// no freed register.
		ar.accs, ar.freed = ar.accs[:0], ar.freed[:0]
		ar.record(&p.Instrs[i])
		end := j
		for ; fusible && j < len(p.Instrs) && !laid; j++ {
			in := &p.Instrs[j]
			if in.Op == bytecode.OpFree && in.Out.IsReg() {
				ar.freed = append(ar.freed, in.Out.Reg)
				continue
			}
			if shape2, kind2 := sweepAt(p, j); kind2 != sweepFusible || !shape2.Equal(shape) || ar.touchesFreed(in) {
				break
			}
			span, ok := ar.admit(in)
			if !ok {
				break
			}
			if span != (lagSpan{}) {
				if laid = ar.layoutNest(ns, p, i, j+1, shape, live, &span); !laid {
					break
				}
			}
			ar.record(in)
			end = j + 1
		}
		if fusible && !laid && j < len(p.Instrs) && reduceEpilogueAt(p, i, j, shape) {
			end = j + 1
		}
		if kind != sweepNone && !laid {
			ar.layoutNest(ns, p, i, end, shape, live, nil)
		}
		for ns.konst = k; i < end; i++ {
			k += constCount(&p.Instrs[i])
		}
	}
	ar.consts = k
	return ar.clusters
}

// touchesFreed reports whether in names a register a BH_FREE inside the
// cluster being planned releases.
func (ar *compileArena) touchesFreed(in *bytecode.Instruction) bool {
	for _, o := range operands(in) {
		if o.IsReg() && slices.Contains(ar.freed, o.Reg) {
			return true
		}
	}
	return false
}

// sweepKind classifies an instruction for nest execution.
type sweepKind int

const (
	// sweepNone: a system or extension byte-code, which exec runs.
	sweepNone sweepKind = iota
	// sweepAlone: a nest of its own, never part of a cluster — a reduction
	// or scan, over its input's shape, unless it closes a cluster
	// (reduceEpilogueAt); an elementwise instruction whose result view is
	// not injective (runNest sweeps it one element at a time) or that reads
	// its result register through another overlapping window (runNest
	// snapshots that input). Another register bound to the result's buffer
	// is for Plan.Execute's binding check: the plan then runs unfused, and
	// the lone instruction takes the same snapshot.
	sweepAlone
	// sweepFusible: any other elementwise instruction, of any dtypes.
	sweepFusible
)

// sweepAt classifies instruction i, returning its iteration shape.
func sweepAt(p *bytecode.Program, i int) (tensor.Shape, sweepKind) {
	in := &p.Instrs[i]
	switch in.Op.Info().Kind {
	case bytecode.KindReduction, bytecode.KindScan:
		return in.In1.View.Shape, sweepAlone
	case bytecode.KindUnary, bytecode.KindBinary, bytecode.KindGenerator:
	default:
		return nil, sweepNone
	}
	if !viewInjective(in.Out.View) {
		return in.Out.View.Shape, sweepAlone
	}
	for _, opnd := range [2]*bytecode.Operand{&in.In1, &in.In2} {
		if opnd.IsReg() && opnd.Reg == in.Out.Reg && !opnd.View.Equal(in.Out.View) && opnd.View.Overlaps(in.Out.View) {
			return in.Out.View.Shape, sweepAlone
		}
	}
	return in.Out.View.Shape, sweepFusible
}

// misaligned reports whether input o, of a result through view out, reads
// out's buffer through another overlapping window — compared broadcast to
// out's shape — so that a sweep could read elements it has already
// written.
func misaligned(o *bytecode.Operand, out tensor.View) bool {
	if o.View.Equal(out) || !o.View.Overlaps(out) {
		return false
	}
	v, _ := o.View.BroadcastTo(out.Shape)
	return !v.Equal(out)
}

// generates reports whether op computes its values from the element index.
func generates(op bytecode.Opcode) bool { return op == bytecode.OpRange || op == bytecode.OpRandom }

// folds reports whether op is a reduction or a scan.
func folds(op bytecode.Opcode) bool {
	kind := op.Info().Kind
	return kind == bytecode.KindReduction || kind == bytecode.KindScan
}

// reduceEpilogueAt reports whether the reduction at index j can close the
// preceding elementwise cluster [start, j), of iteration shape shape, as
// its nest's fold step. The legal
// shape: a reduction over any axis — including the argmin/argmax index
// reductions, whose fold carries a (value, index) pair — of a non-empty
// input that is a register the cluster wrote, through exactly the window
// of the cluster's final write, into one output element per line of an
// output register the cluster does not touch. The nest puts the reduced
// axis innermost, so it walks the lines in the row-major order the
// two-sweep path does, and no axis is special. Another register bound to
// the output's buffer is for Plan.Execute's binding check, which then runs
// the cluster unfused.
func reduceEpilogueAt(p *bytecode.Program, start, j int, shape tensor.Shape) bool {
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
	// An empty input runs as a fold nest of its own (an empty axis takes
	// its identity-fill path).
	if size := shape.Size(); size == 0 || !in.In1.View.Shape.Equal(shape) || in.Out.View.Size() != size/shape[in.Axis] {
		return false
	}
	// The output register must be untouched by the cluster: the fold
	// writes it line by line while producer steps still read and write.
	lastWrite := -1
	for k := start; k < j; k++ {
		switch ik := &p.Instrs[k]; {
		case ik.Out.Reg == in.Out.Reg || ik.ReadsReg(in.Out.Reg):
			return false
		case ik.Out.Reg == in.In1.Reg:
			lastWrite = k
		}
	}
	return lastWrite >= 0 && p.Instrs[lastWrite].Out.View.Equal(in.In1.View) && in.Out.Reg != in.In1.Reg
}

// regAccess is one distinct (register, view, direction) access inside the
// cluster being planned; view points into the program. A nest runs its
// steps in order over each row (or block of a row), so the only
// cross-element hazard is a register accessed through two views where the
// same buffer slot maps to different iteration indices — i.e. a WRITE view
// overlapping any other non-equal view. Overlapping reads (the stencil's
// north/south/east/west windows) are always safe; admit names the one
// write that may overlap them.
type regAccess struct {
	reg   bytecode.RegID
	view  *tensor.View
	write bool
}

// record adds in's accesses to the cluster's.
func (ar *compileArena) record(in *bytecode.Instruction) {
	ar.add(in.Out.Reg, &in.Out.View, true)
	for _, opnd := range [2]*bytecode.Operand{&in.In1, &in.In2} {
		if opnd.IsReg() {
			ar.add(opnd.Reg, &opnd.View, false)
		}
	}
}

func (ar *compileArena) add(reg bytecode.RegID, view *tensor.View, write bool) {
	for i := range ar.accs {
		if ac := &ar.accs[i]; ac.reg == reg && ac.write == write && ac.view.Equal(*view) {
			return // an in-place chain repeats one access per step
		}
	}
	ar.accs = append(ar.accs, regAccess{reg, view, write})
}

// admit reports whether in may join the cluster. A non-zero lagSpan means
// its write aliases earlier *reads* of its register, each through a pure
// translation of the write view (same shape and strides, another offset):
// in may then only close the cluster, if the nest can store it lagged.
func (ar *compileArena) admit(in *bytecode.Instruction) (lagSpan, bool) {
	w := &in.Out.View
	var span lagSpan
	for i := range ar.accs {
		ac := &ar.accs[i]
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

// countFusedDTypes attributes ns's steps to the per-dtype fused counters
// by their output register's dtype.
func (m *Machine) countFusedDTypes(p *bytecode.Program, ns *nest) {
	for i := range ns.steps {
		if ri, ok := p.Reg(p.Instrs[ns.steps[i].index].Out.Reg); ok {
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
	var buf [8]ds
	dims := buf[:0]
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
	slices.SortFunc(dims, func(a, b ds) int { return cmp.Compare(a.stride, b.stride) })
	span := 0
	for _, d := range dims {
		if d.stride <= span {
			return false
		}
		span += (d.extent - 1) * d.stride
	}
	return true
}
