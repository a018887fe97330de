package vm

import (
	"fmt"
	"math"
	"slices"

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
// Every step runs a run kernel (loops.go) over unit-stride slices, and a
// chain of steps one loop (chainAt). An operand whose innermost stride is
// not 1 (negative-step, strided, broadcast) is packed into per-worker
// scratch by one typed gather loop, and a strided result is scattered back,
// so there is exactly one kernel table. A generator computes its run from
// the row-major index of its first element, which the nest tracks like an
// operand's offset (index). A promoted step — operands of other dtypes than
// its result — widens its inputs' runs to its computation class in scratch,
// runs the class's kernel and narrows the result (promotedStep).
//
// A register the cluster writes and the batch proves dead afterwards is
// virtual (virtualRegs): its current run lives in the worker's scratch and
// it is never materialized. A closing write that aliases translated read
// windows of its register runs as a lagged store (lagStore). A closing
// reduction runs as a fold (foldStep) over lines, and so does every
// reduction or scan (scanStep) that closes no cluster, as the only step of
// a fold nest: the nest's iteration space is then the input's with the
// folded axis moved innermost.
type nest struct {
	start, end int  // instruction range [start, end)
	fused      bool // more than one step
	outer      []int
	inner      int     // length of the innermost run
	total      int     // elements per step: inner × product(outer)
	bases      []int   // view offset per operand slot
	strides    [][]int // strides[d][slot]: stride of outer axis d
	steps      []nestStep
	slab       [8]int          // per-worker scratch elements by dtype: gather/scatter blocks, virtual runs, the ring
	lag        *lagStore       // non-nil: the last step is a lagged closing write
	fold       bytecode.OpKind // KindReduction or KindScan: the last step folds or scans lines
	line       int             // a fold nest's elements per line
	chained    int             // instructions that run inside chain steps
	konst      int             // the constant vector's index of the first constant at or after start
	index      operandAccess   // the slot and innermost stride of the iteration's row-major index, for generators
	serial     bool            // a lone result view that addresses an element twice: swept element by element
}

// nestStep is one instruction of a nest.
type nestStep struct {
	index int              // instruction index
	ops   [3]bufSpan       // result, first input, second input (register operands only)
	acc   [3]operandAccess // where each operand's run is found
	code  stepCode         // nil: the op has no kernel for these dtypes (reported at execution), or the step is inside a chain
	width int              // instructions code runs: 1, or a chain's length at its head (0 inside it)
}

// bufSpan is what a register operand demands of the buffer bound to it:
// its dtype (in a plan, the declared one) and the index range its view
// touches (lo > hi: none).
// A virtual operand binds no buffer.
type bufSpan struct {
	dtype   tensor.DType
	virtual bool
	lo, hi  int
}

// operandAccess locates an operand's current run. A memory operand has its
// slot in the worker's offset table and its innermost stride; when that is
// not 1, row is the slab offset of its gather (or scatter) block. A virtual
// operand (slotVirtual) lives in the slab alone, at row — plus the current
// ring slot for slotRing. slotConst: a constant, at index row of the
// constant vector. slotNone: an absent operand.
type operandAccess struct{ slot, stride, row int }

const (
	slotNone    = -1
	slotVirtual = -2
	slotRing    = -3 // virtual, and its runs are the lagged store's ring
	slotConst   = -4
)

// stepCode is a typed step's compiled, buffer-independent code. run
// executes it over n elements of the worker's current row from column col;
// ops[j] are the buffers of the j-th step from this one (nil for constant
// and virtual operands). store copies n lagged results from the ring slot
// at slab offset from to dst[off], dst[off+stride], ... (closing steps only).
type stepCode interface {
	run(w *nestWorker, ops [][3]tensor.Buffer, col, n int)
	store(w *nestWorker, dst tensor.Buffer, from, off, stride, n int)
}

// nestWorker is one chunk's position in the nest, its scratch slab per
// dtype, the constant vector it runs under, its share of the lagged store
// and its fold.
type nestWorker struct {
	offs   []int               // current row's base offset per operand slot
	coords []int               // odometer position over the outer axes
	slab   [8]tensor.Buffer    // at least nest.slab[dtype] elements each
	consts []bytecode.Constant // the constant vector: steps read their slots once per run call

	slot                  int      // slab offset of the current run's ring (or hold) slot
	pend                  []lagRun // results not yet stored: hold slots first, then the ring
	held, ringed, flushed int      // head runs held; ring runs produced, and stored
	edge                  int      // an earlier chunk still reads results below this address

	acc foldAcc
}

// nestFrame is runNest's Machine-owned state — each step's bound buffers,
// one nestWorker per chunk, a fold's chunk partials — grown on demand and
// kept: executing a cached plan allocates no scratch, and plans stay
// immutable.
type nestFrame struct {
	ops     [][3]tensor.Buffer
	workers []nestWorker
	parts   []foldAcc
}

func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// prepare readies count workers for one execution of ns under consts.
func (f *nestFrame) prepare(ns *nest, count int, consts []bytecode.Constant) []nestWorker {
	for len(f.workers) < count {
		f.workers = append(f.workers, nestWorker{})
	}
	ws := f.workers[:count]
	for i := range ws {
		w := &ws[i]
		w.offs, w.coords, w.consts = grown(w.offs, len(ns.bases)), grown(w.coords, len(ns.outer)), consts
		for dt, n := range ns.slab {
			if n > 0 && (w.slab[dt] == nil || w.slab[dt].Len() < n) {
				w.slab[dt] = tensor.MustBuffer(tensor.DType(dt), n)
			}
		}
		if ns.lag != nil {
			w.pend = grown(w.pend, ns.lag.hold+ns.lag.ring)
			w.held, w.ringed, w.flushed = 0, 0, 0
		}
	}
	return ws
}

func slabOf[T tensor.Elem](w *nestWorker, dt tensor.DType) []T {
	s, _ := tensor.RawSlice[T](w.slab[dt])
	return s
}

func operands(in *bytecode.Instruction) [3]*bytecode.Operand {
	return [3]*bytecode.Operand{&in.Out, &in.In1, &in.In2}
}

// attach gives each constant operand of ns its slot in the constant vector
// and compiles ns's kernel steps from p.
func (ns *nest) attach(p *bytecode.Program, ks *kernelSlabs) {
	slot := ns.konst
	for i := range ns.steps {
		for k, o := range operands(&p.Instrs[ns.steps[i].index]) {
			if o.IsConst() {
				ns.steps[i].acc[k], slot = operandAccess{slot: slotConst, row: slot}, slot+1
			}
		}
	}
	for k := 0; k < len(ns.steps); k += ns.steps[k].width {
		st := &ns.steps[k]
		in := &p.Instrs[st.index]
		ks.left = len(ns.steps) - k - st.width
		if ns.fold != 0 && k == len(ns.steps)-1 {
			st.code = newFoldStep(in, st, ns.line)
			break
		}
		st.code = newKernelStep(p, ns, ns.steps[k:k+st.width], ks)
	}
}

// layoutNest lays out the kernel-free half of a nest into ns, exactly
// sized, with the arena's tables: operand slots, the collapsed geometry,
// the scratch slab, the lagged store. It returns false only to decline the
// closing write lagged announces (the planner asks). A closing reduction
// (reduceEpilogueAt), or a lone reduction or scan, makes a fold nest.
func (ar *compileArena) layoutNest(ns *nest, p *bytecode.Program, start, end int, shape tensor.Shape, live liveness, lagged *lagSpan) bool {
	n := end - start
	for i := start; i < end; i++ {
		if p.Instrs[i].Op == bytecode.OpFree {
			n--
		}
	}
	*ns = nest{start: start, end: end, fused: n > 1, total: shape.Size(), steps: make([]nestStep, n), index: operandAccess{slot: slotNone}}
	for i, k := start, 0; k < n; i++ {
		if p.Instrs[i].Op != bytecode.OpFree {
			ns.steps[k].index = i
			k++
		}
	}
	virt := ar.virtualRegs(p, ns.steps, end, shape, live)
	nd, reduced := len(shape), len(shape)
	if in := &p.Instrs[end-1]; folds(in.Op) {
		ns.fold, reduced, ns.line = in.Op.Info().Kind, in.Axis, shape[in.Axis]
	}
	ns.serial = n == 1 && ns.fold == 0 && !viewInjective(p.Instrs[start].Out.View)
	views, gen := ar.views[:0], false
	for i := range ns.steps {
		st := &ns.steps[i]
		in := &p.Instrs[st.index]
		gen = gen || generates(in.Op)
		for k, o := range operands(in) {
			st.acc[k].slot = slotNone
			if !o.IsReg() {
				continue
			}
			ri, _ := p.Reg(o.Reg)
			st.ops[k] = bufSpan{dtype: ri.DType, hi: -1}
			if b := ar.bound.get(o.Reg); b != nil {
				st.ops[k].dtype = b.DType()
			}
			if findVirtual(virt, o.Reg) != nil {
				st.ops[k].virtual, st.acc[k].slot = true, slotVirtual
				continue
			}
			if lo, hi, ok := o.View.MinMaxIndex(); ok && (ns.total > 0 || k == 0) {
				st.ops[k].lo, st.ops[k].hi = lo, hi // broadcast to shape, the view addresses the same elements; an empty axis's identity fills the result
			}
			if ns.fold != bytecode.KindReduction || k > 0 || i < n-1 { // a reduction's result: one element per line, through no slot
				st.acc[k].slot = len(views)
				views = append(views, &o.View)
			}
		}
	}
	if gen {
		// The row-major layout of the iteration shape: a slot whose offset
		// is the index of the current run's first element.
		s := grown(ar.index.Strides, nd)
		for d, size := nd-1, 1; d >= 0; d-- {
			s[d], size = size, size*shape[d]
		}
		ar.index = tensor.View{Shape: shape, Strides: s}
		ns.index.slot, views = len(views), append(views, &ar.index)
	}
	ar.views = views
	for i := 0; i < n; i += ns.steps[i].width {
		if ns.steps[i].width = chainAt(p, ns.steps, i); ns.steps[i].width > 1 {
			ns.chained += ns.steps[i].width
		}
	}

	// Collapse: drop singleton dimensions, then merge each dimension into
	// its outer neighbour when every operand steps through the pair as
	// through one dense dimension. Operands broadcast to shape; a fold's
	// reduced axis moves last.
	type axis struct {
		extent  int
		strides []int
	}
	var axesBuf [8]axis
	nv, axes := len(views), axesBuf[:0]
	ar.strides = grown(ar.strides, nd*nv)
	for d := range nd {
		sd := d
		if d >= reduced {
			if sd = d + 1; sd == nd {
				sd = reduced
			}
		}
		extent := shape[sd]
		if extent == 1 {
			continue
		}
		cur := ar.strides[d*nv : (d+1)*nv]
		for s, v := range views {
			cur[s] = 0
			if i := sd - nd + len(v.Shape); i >= 0 && v.Shape[i] == extent {
				cur[s] = v.Strides[i]
			}
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
		ns.outer, ns.strides = make([]int, n-1), make([][]int, n-1)
		for d, ax := range axes[:n-1] {
			ns.outer[d], ns.strides[d] = ax.extent, slices.Clone(ax.strides)
		}
	}
	ns.bases = make([]int, nv)
	for s, v := range views {
		ns.bases[s] = v.Offset
	}
	innermost := func(acc *operandAccess) {
		if acc.slot >= 0 {
			acc.stride = 1 // a single element: any stride addresses it
			if ns.inner > 1 {
				acc.stride = axes[len(axes)-1].strides[acc.slot]
			}
		}
	}
	for i := range ns.steps {
		for k := range ns.steps[i].acc {
			innermost(&ns.steps[i].acc[k])
		}
	}
	innermost(&ns.index)

	// Scratch: one block per run for every virtual register and for every
	// operand position that gathers or scatters — for every such operand in
	// a chain, which reads all of its inputs at once; the ring takes one per slot.
	blk := min(ns.inner, fusedBlockSize)
	take := func(dt tensor.DType, n int) int {
		ns.slab[dt] += n
		return ns.slab[dt] - n
	}
	closing, last := &p.Instrs[end-1], &ns.steps[n-1].acc
	if lagged != nil {
		lag := &lagStore{lagSpan: *lagged, slot: last[0].slot, stride: last[0].stride, blk: blk}
		if lag.slot < 0 || !lag.size(ns) {
			return false
		}
		ns.lag = lag
		if ops := &ns.steps[n-1].ops; closing.Op == bytecode.OpIdentity && closing.In1.IsReg() && ops[1].dtype == ops[0].dtype {
			if src := findVirtual(virt, closing.In1.Reg); src != nil {
				src.slots, lag.alias = lag.hold+lag.ring, true
			}
		}
	}
	for i := range virt {
		ri, _ := p.Reg(virt[i].reg)
		virt[i].row = take(ri.DType, blk*max(1, virt[i].slots))
	}
	var blocks [8][3]int // 1 + slab offset of the gather/scatter block per (dtype, position)
	for i := range ns.steps {
		for k, o := range operands(&p.Instrs[ns.steps[i].index]) {
			acc, dt := &ns.steps[i].acc[k], ns.steps[i].ops[k].dtype
			if acc.slot == slotVirtual {
				v := findVirtual(virt, o.Reg)
				if acc.row = v.row; v.slots > 0 {
					acc.slot = slotRing
				}
			} else if acc.slot >= 0 && acc.stride != 1 {
				if blocks[dt][k] == 0 || ns.steps[i].width != 1 {
					blocks[dt][k] = 1 + take(dt, blk)
				}
				acc.row = blocks[dt][k] - 1
			}
		}
	}
	if lag := ns.lag; lag != nil && lag.alias {
		last[0] = last[1] // the source register's run is the ring slot
	} else if lag != nil {
		last[0] = operandAccess{slot: slotRing, row: take(ns.steps[n-1].ops[0].dtype, (lag.hold+lag.ring)*blk)}
	}
	return true
}

// virtualReg is a register a fused nest keeps out of memory: its run's slab
// offset and, when its runs double as the lagged store's ring, their count.
type virtualReg struct {
	reg        bytecode.RegID
	row, slots int
	view       *tensor.View // while virtualRegs runs: the first touch's view
	mem        bool         // while virtualRegs runs: the register needs memory
}

func findVirtual(virt []virtualReg, r bytecode.RegID) *virtualReg {
	for i := range virt {
		if virt[i].reg == r {
			return &virt[i]
		}
	}
	return nil
}

// virtualRegs picks the registers of fused cluster steps, ending at
// instruction end-1, that need no memory: dead once it ends
// (liveness.deadAfter, or freedBy a BH_FREE inside it) and touched inside it
// only through one view of its shape, first by a write that does not read
// it — whatever a step reads was produced earlier in the same run. One
// pass follows every register the cluster touches from its first touch.
func (ar *compileArena) virtualRegs(p *bytecode.Program, steps []nestStep, end int, shape tensor.Shape, live liveness) []virtualReg {
	virt := ar.virt[:0]
	for i := 0; i < len(steps) && len(steps) > 1; i++ {
		in := &p.Instrs[steps[i].index]
		for k, o := range operands(in) {
			if !o.IsReg() {
				continue
			}
			if v := findVirtual(virt, o.Reg); v != nil {
				v.mem = v.mem || !o.View.Equal(*v.view) // touched through another view
				continue
			}
			mem := k > 0 || folds(in.Op) || !live.deadAfter(o.Reg, end-1) && !live.freedBy(o.Reg, end-1) || !o.View.Shape.Equal(shape) || in.ReadsReg(o.Reg)
			virt = append(virt, virtualReg{reg: o.Reg, view: &o.View, mem: mem})
		}
	}
	ar.virt = slices.DeleteFunc(virt, func(v virtualReg) bool { return v.mem })
	return ar.virt
}

// chainAt returns how many steps from i contract into one chain step (1:
// none): t = a ⊕ b; t = t ⊕ x; … with one add or multiply of a non-bool
// dtype into a virtual register t (no input reads t through another view),
// every input of t's dtype, and a trailing t = t ⊗ c, ⊗ one of + − × ÷.
// Past chainWidth inputs, or at t = t ⊕ t, the run goes on as a chain whose
// first input is t so far.
func chainAt(p *bytecode.Program, steps []nestStep, i int) int {
	head, dt := &p.Instrs[steps[i].index], steps[i].ops[0].dtype
	if head.Op != bytecode.OpAdd && head.Op != bytecode.OpMultiply || !steps[i].ops[0].virtual || dt == tensor.Bool ||
		!head.In1.IsReg() || !head.In2.IsReg() || steps[i].ops[1].dtype != dt || steps[i].ops[2].dtype != dt {
		return 1
	}
	t, j := head.Out.Reg, i+1
	for ; j < len(steps); j++ {
		in := &p.Instrs[steps[j].index]
		if in.Out.Reg != t || !in.In1.IsReg() || in.In1.Reg != t {
			break
		}
		if in.In2.IsConst() && slices.Contains(chainTailOps, in.Op) {
			return j + 1 - i
		}
		if !in.In2.IsReg() || in.In2.Reg == t || steps[j].ops[2].dtype != dt || in.Op != head.Op || j-i+1 == chainWidth {
			break
		}
	}
	return j - i
}

// lagSpan is how far a cluster's read windows of the closing write's
// register trail (back) and lead (ahead) the write view, in elements: a
// window at offset δ reads, at iteration i, the address i writes plus δ.
type lagSpan struct{ back, ahead int }

// lagStore is a nest's lagged closing write. The write view's address
// grows strictly with the flat iteration index (positive, row-major
// monotone), so "later iterations" means "higher addresses". Each run's
// result goes to a ring slot and is stored only once the compute front has
// passed every address it can still be read from: when a run starting at
// address a begins, pending runs ending below a-back are stored (lagBegin).
// What another chunk may still read — a chunk's first runs, within ahead
// of its first address, and whatever is pending when it ends — stays in
// its slots until the caller stores it after the parallelFor barrier
// (drain), so the result does not depend on the worker count.
type lagStore struct {
	lagSpan
	slot, stride int  // the write view's offset-table slot and innermost stride
	blk          int  // elements per slot
	ring, hold   int  // ring slots; hold slots for a chunk's first runs
	alias        bool // BH_IDENTITY of a virtual register: its run is the ring slot and the step itself never runs
}

type lagRun struct{ off, n int }

// maxLagScratch bounds ring plus hold slots, in elements per worker.
const maxLagScratch = 8 * fusedBlockSize

// size checks that the write view is monotone in ns and sizes the ring. A
// run stays pending while a later run of its chunk starts within back of
// its end: at most the earlier blocks of its row, plus every block of the
// rows whose span stretched by back reaches the current row (rows advance
// by at least adv). The same count with ahead bounds a chunk's held runs.
func (lag *lagStore) size(ns *nest) bool {
	span := (ns.inner - 1) * lag.stride
	if lag.stride <= 0 {
		return false
	}
	adv, rewind := math.MaxInt, 0 // least address advance between rows; what the axes inside d rewind when d steps
	for d := len(ns.outer) - 1; d >= 0; d-- {
		stride := ns.strides[d][lag.slot]
		if stride-rewind <= span {
			return false
		}
		adv = min(adv, stride-rewind)
		rewind += (ns.outer[d] - 1) * stride
	}
	blocks := (ns.inner + lag.blk - 1) / lag.blk
	runs := func(reach, sameRow int) int {
		return min(sameRow, (reach+lag.blk*lag.stride-1)/(lag.blk*lag.stride)) + blocks*((span+reach)/adv)
	}
	lag.ring = 1 + runs(lag.back, blocks-1)
	if lag.ahead > 0 {
		lag.hold = runs(lag.ahead, blocks)
	}
	return (lag.ring+lag.hold)*lag.blk <= maxLagScratch
}

// lagBegin opens the run of n elements at column c: pending results no
// later iteration reads are stored, then the run takes a hold slot (an
// earlier chunk still reads ahead into it) or the next ring slot.
func (ns *nest) lagBegin(w *nestWorker, ops [][3]tensor.Buffer, c, n int) {
	lag := ns.lag
	off := w.offs[lag.slot] + c*lag.stride
	for ; w.flushed < w.ringed; w.flushed++ {
		i := lag.hold + w.flushed%lag.ring
		if r := w.pend[i]; r.off+(r.n-1)*lag.stride+lag.back >= off {
			break
		}
		ns.store(w, ops, i)
	}
	i := w.held
	if off < w.edge {
		w.held++
	} else {
		i = lag.hold + w.ringed%lag.ring
		w.ringed++
	}
	if w.held > lag.hold || w.ringed-w.flushed > lag.ring {
		panic("vm: lagged store outran its ring") // lagStore.size bounds both
	}
	w.pend[i] = lagRun{off, n}
	w.slot = i * lag.blk
}

// store writes pending run i of w to the closing step's result.
func (ns *nest) store(w *nestWorker, ops [][3]tensor.Buffer, i int) {
	last := len(ns.steps) - 1
	ns.steps[last].code.store(w, ops[last][0], i*ns.lag.blk, w.pend[i].off, ns.lag.stride, w.pend[i].n)
}

// drain stores what w still holds once every chunk has finished.
func (ns *nest) drain(w *nestWorker, ops [][3]tensor.Buffer) {
	for i := 0; i < w.held; i++ {
		ns.store(w, ops, i)
	}
	for ; w.flushed < w.ringed; w.flushed++ {
		ns.store(w, ops, ns.lag.hold+w.flushed%ns.lag.ring)
	}
}

// newKernelStep compiles steps of ns — one instruction, or a chain
// (chainAt) — for the result's dtype, or returns nil when the op has no
// kernel for its dtypes.
func newKernelStep(p *bytecode.Program, ns *nest, steps []nestStep, ks *kernelSlabs) stepCode {
	switch steps[0].ops[0].dtype {
	case tensor.Float64:
		return kernelStepTo(p, ns, steps, ks, &ks.f64)
	case tensor.Float32:
		return kernelStepTo(p, ns, steps, ks, &ks.f32)
	case tensor.Int64:
		return kernelStepTo(p, ns, steps, ks, &ks.i64)
	case tensor.Int32:
		return kernelStepTo(p, ns, steps, ks, &ks.i32)
	case tensor.Bool, tensor.Uint8:
		return kernelStepTo(p, ns, steps, ks, &ks.u8)
	}
	return nil
}

func kernelStepTo[D tensor.Elem](p *bytecode.Program, ns *nest, steps []nestStep, ks *kernelSlabs, same *[]kernelStep[D, D]) stepCode {
	if len(steps) > 1 {
		return chainStepOf[D](p, steps, ks)
	}
	st, in := &steps[0], &p.Instrs[steps[0].index]
	dt := st.ops[0].dtype
	if generates(in.Op) {
		return genStepOf[D](in.Op, st, ns.index)
	}
	key := loopKey{dt: dt, op: in.Op, aConst: in.In1.IsConst(), bConst: in.In2.IsConst()}
	promoted, intClass := false, !dt.IsFloat()
	for j, o := range [2]*bytecode.Operand{&in.In1, &in.In2} {
		if o.IsReg() {
			promoted = promoted || st.ops[j+1].dtype != dt
			intClass = intClass && !st.ops[j+1].dtype.IsFloat()
		}
		if o.Kind != bytecode.OperandNone {
			key.arity++
		}
	}
	if promoted {
		// The class: exact int64 when the result and every register input
		// are integer or bool and the op has an integer kernel, float64
		// otherwise.
		_, unary := intUnaryKernel(in.Op)
		_, binary := intBinaryKernel(in.Op)
		if intClass && (key.arity == 1 && unary || key.arity == 2 && binary) {
			return promotedStepOf[D, int64](ns, st, in, key, tensor.Int64, ks)
		}
		return promotedStepOf[D, float64](ns, st, in, key, tensor.Float64, ks)
	}
	k, ok := loopOf[D](ks, key)
	if !ok {
		return nil
	}
	if len(*same) == 0 {
		*same = make([]kernelStep[D, D], max(1, ks.left+1))
	}
	ps := &(*same)[0]
	*same = (*same)[1:]
	ps.kern, ps.out, ps.in1, ps.in2, ps.dstDT, ps.srcDT = k, st.acc[0], st.acc[1], st.acc[2], dt, dt
	return ps
}

// kernelSlabs hands a plan its same-type kernel steps out of one slice per
// storage type, sized by the nest's steps still to attach, and shares each
// kernel among the plan's steps of one loopKey: a kernel holds no constant.
type kernelSlabs struct {
	left, nkeys int
	f64         []kernelStep[float64, float64]
	f32         []kernelStep[float32, float32]
	i64         []kernelStep[int64, int64]
	i32         []kernelStep[int32, int32]
	u8          []kernelStep[uint8, uint8]
	keys        [8]loopKey
	loops       [8]any // kernel[T, T] per key
}

// loopOf returns key's kernel, compiled once per plan (for its first
// len(ks.keys) keys).
func loopOf[T tensor.Elem](ks *kernelSlabs, key loopKey) (kernel[T, T], bool) {
	if i := slices.Index(ks.keys[:ks.nkeys], key); i >= 0 {
		return ks.loops[i].(kernel[T, T]), true
	}
	k, ok := compileLoop[T](key)
	if ok && ks.nkeys < len(ks.keys) {
		ks.keys[ks.nkeys], ks.loops[ks.nkeys] = key, k
		ks.nkeys++
	}
	return k, ok
}

// kernelStep is a step's typed code: D is the result's storage type, S
// the inputs'. A nest runs only on buffers of the dtypes it was compiled
// for (runNest), so the RawSlice assertions cannot fail.
type kernelStep[D, S tensor.Elem] struct {
	kern          kernel[D, S]
	out, in1, in2 operandAccess
	dstDT, srcDT  tensor.DType // index the worker's slabs
}

func (st *kernelStep[D, S]) run(w *nestWorker, ops [][3]tensor.Buffer, col, n int) {
	a := inputRun[S](w, st.srcDT, ops[0][1], st.in1, col, n)
	b := inputRun[S](w, st.srcDT, ops[0][2], st.in2, col, n)
	d := st.result(w, ops[0][0], col, n)
	st.kern(d, a, b, args{w.arg(st.in1), w.arg(st.in2)})
	st.flush(w, ops[0][0], col, d)
}

// result is the run the step's n results from column col go to: the
// result buffer itself at unit stride, else a virtual run or the scatter
// block, which flush stores.
func (st *kernelStep[D, S]) result(w *nestWorker, buf tensor.Buffer, col, n int) []D {
	if st.out.slot <= slotVirtual {
		return virtualRun[D](w, st.dstDT, st.out, n)
	}
	if st.out.stride != 1 {
		return slabOf[D](w, st.dstDT)[st.out.row:][:n]
	}
	dst, _ := tensor.RawSlice[D](buf)
	off := w.offs[st.out.slot] + col
	return dst[off : off+n]
}

// flush scatters run d, from result, to a strided result buffer.
func (st *kernelStep[D, S]) flush(w *nestWorker, buf tensor.Buffer, col int, d []D) {
	if st.out.slot >= 0 && st.out.stride != 1 {
		dst, _ := tensor.RawSlice[D](buf)
		scatter(dst, d, w.offs[st.out.slot]+col*st.out.stride, st.out.stride)
	}
}

func (st *kernelStep[D, S]) store(w *nestWorker, dstBuf tensor.Buffer, from, off, stride, n int) {
	dst, _ := tensor.RawSlice[D](dstBuf)
	scatter(dst, slabOf[D](w, st.dstDT)[st.out.row+from:][:n], off, stride)
}

// genStep is a generator's step: its kernelStep's result and constant
// operands, and gen, which fills a run with the values of the elements at
// row-major indices i, i+stride, …: BH_RANGE's index, or BH_RANDOM's
// counter-based stream element tensor.At(seed, key+i) — scaled to [0, 1)
// for a float result and kept a non-negative integer otherwise — each
// stored as Buffer.SetInt or Set stores it.
type genStep[D tensor.Elem] struct {
	kernelStep[D, D]
	gen func(d []D, i, stride int, c args)
	idx operandAccess
}

func genStepOf[D tensor.Elem](op bytecode.Opcode, st *nestStep, idx operandAccess) stepCode {
	dt := st.ops[0].dtype
	isBool, gs := dt == tensor.Bool, &genStep[D]{idx: idx}
	gs.out, gs.in1, gs.in2, gs.dstDT = st.acc[0], st.acc[1], st.acc[2], dt
	switch {
	case op == bytecode.OpRange:
		gs.gen = func(d []D, i, stride int, _ args) {
			for j := range d {
				d[j], i = store[D](int64(i), isBool), i+stride
			}
		}
	case dt.IsFloat():
		gs.gen = func(d []D, i, stride int, c args) {
			seed, key := uint64(c[0].i), uint64(c[1].i)
			for j := range d {
				d[j], i = D(float64(tensor.At(seed, key+uint64(i))>>11)/(1<<53)), i+stride
			}
		}
	default:
		gs.gen = func(d []D, i, stride int, c args) {
			seed, key := uint64(c[0].i), uint64(c[1].i)
			for j := range d {
				d[j], i = store[D](int64(tensor.At(seed, key+uint64(i))>>1), isBool), i+stride
			}
		}
	}
	return gs
}

func (st *genStep[D]) run(w *nestWorker, ops [][3]tensor.Buffer, col, n int) {
	d := st.result(w, ops[0][0], col, n)
	st.gen(d, w.offs[st.idx.slot]+col*st.idx.stride, st.idx.stride, args{w.arg(st.in1), w.arg(st.in2)})
	st.flush(w, ops[0][0], col, d)
}

// promotedStep is a step whose register operands are not all of its
// result's dtype. It computes in class C — float64, or exact int64 — as
// Buffer.Get/Set or GetInt/SetInt do: each register input's run is widened
// to C in slab scratch unless it is of C already, class, C's run kernel,
// runs over the widened runs (a cast has none), and the embedded
// kernelStep narrows the result to D (castKernel).
type promotedStep[D, C tensor.Elem] struct {
	kernelStep[D, C]
	class kernel[C, C]
	widen [2]func(w *nestWorker, buf tensor.Buffer, col, n int) []C
	row   int // slab offset of C's run
}

func promotedStepOf[D, C tensor.Elem](ns *nest, st *nestStep, in *bytecode.Instruction, key loopKey, class tensor.DType, ks *kernelSlabs) stepCode {
	dt, blk := st.ops[0].dtype, min(ns.inner, fusedBlockSize)
	ps := &promotedStep[D, C]{row: ns.slab[class]}
	ps.kern, ps.out, ps.in1, ps.in2, ps.dstDT, ps.srcDT = castKernel[D, C](dt, class), st.acc[0], st.acc[1], st.acc[2], dt, class
	for j, o := range [2]*bytecode.Operand{&in.In1, &in.In2} {
		if o.IsReg() {
			ns.slab[class] += blk
			ps.widen[j] = widener[C](st.ops[j+1].dtype, class, st.acc[j+1], ns.slab[class]-blk)
		}
	}
	ns.slab[class] = max(ns.slab[class], ps.row+blk)
	if in.Op != bytecode.OpIdentity {
		key.dt = class
		var ok bool
		if ps.class, ok = loopOf[C](ks, key); !ok {
			return nil
		}
	}
	return ps
}

func (st *promotedStep[D, C]) run(w *nestWorker, ops [][3]tensor.Buffer, col, n int) {
	var x [2][]C
	for j, widen := range st.widen {
		if widen != nil {
			x[j] = widen(w, ops[0][j+1], col, n)
		}
	}
	r := x[0]
	if st.class != nil {
		r = slabOf[C](w, st.srcDT)[st.row:][:n]
		st.class(r, x[0], x[1], args{w.arg(st.in1), w.arg(st.in2)})
	}
	d := st.result(w, ops[0][0], col, n)
	st.kern(d, r, nil, args{})
	st.flush(w, ops[0][0], col, d)
}

// widener returns the code that reads an input run of dtype dt through acc
// in class C, widened into C's slab at row.
func widener[C tensor.Elem](dt, class tensor.DType, acc operandAccess, row int) func(*nestWorker, tensor.Buffer, int, int) []C {
	switch {
	case dt == class:
		return func(w *nestWorker, buf tensor.Buffer, col, n int) []C { return inputRun[C](w, dt, buf, acc, col, n) }
	case dt == tensor.Float64:
		return widenerOf[C, float64](dt, class, acc, row)
	case dt == tensor.Float32:
		return widenerOf[C, float32](dt, class, acc, row)
	case dt == tensor.Int64:
		return widenerOf[C, int64](dt, class, acc, row)
	case dt == tensor.Int32:
		return widenerOf[C, int32](dt, class, acc, row)
	}
	return widenerOf[C, uint8](dt, class, acc, row)
}

func widenerOf[C, S tensor.Elem](dt, class tensor.DType, acc operandAccess, row int) func(*nestWorker, tensor.Buffer, int, int) []C {
	widen := castKernel[C, S](class, dt)
	return func(w *nestWorker, buf tensor.Buffer, col, n int) []C {
		x := slabOf[C](w, class)[row:][:n]
		widen(x, inputRun[S](w, dt, buf, acc, col, n), nil, args{})
		return x
	}
}

// scatter stores run d to dst[off], dst[off+stride], ...
func scatter[T tensor.Elem](dst, d []T, off, stride int) {
	if stride == 1 {
		copy(dst[off:off+len(d)], d)
		return
	}
	for _, v := range d {
		dst[off] = v
		off += stride
	}
}

// chainStep runs a chain (chainAt) as one loop, chainBody: t's run is
// written once, not once per instruction. Its kernelStep has t's run and,
// when the chain ends in a constant step, that step's op, constant (in2)
// and kernel: each run call folds the constant into the loop when
// chainTail can and runs the kernel over t's run after it otherwise.
type chainStep[T tensor.Elem] struct {
	kernelStep[T, T]
	body func(d []T, x [chainWidth][]T, m, s T)
	in   []operandAccess // the head's two inputs, then each further step's second
	tail bytecode.Opcode // the constant step's op; zero: none
}

func chainStepOf[T tensor.Elem](p *bytecode.Program, steps []nestStep, ks *kernelSlabs) stepCode {
	dt := steps[0].ops[0].dtype
	st := &chainStep[T]{kernelStep: kernelStep[T, T]{out: steps[0].acc[0], dstDT: dt}, in: []operandAccess{steps[0].acc[1]}}
	for _, sj := range steps {
		if in := &p.Instrs[sj.index]; !in.In2.IsConst() {
			st.in = append(st.in, sj.acc[2])
		} else {
			st.tail, st.in2 = in.Op, sj.acc[2]
			st.kern, _ = loopOf[T](ks, loopKey{dt: dt, op: in.Op, arity: 2, bConst: true})
		}
	}
	st.body = chainBody[T](p.Instrs[steps[0].index].Op == bytecode.OpMultiply, len(st.in))
	return st
}

func (st *chainStep[T]) run(w *nestWorker, ops [][3]tensor.Buffer, col, n int) {
	d := virtualRun[T](w, st.dstDT, st.out, n)
	x := [chainWidth][]T{inputRun[T](w, st.dstDT, ops[0][1], st.in[0], col, n), d, d, d, d} // d: unread
	for j, acc := range st.in[1:] {
		x[j+1] = inputRun[T](w, st.dstDT, ops[j][2], acc, col, n)
	}
	c := args{1: w.arg(st.in2)}
	m, s, folded := chainTail[T](st.tail, c[1]) // (1, 0, false) with no tail
	st.body(d, x, m, s)
	if !folded && st.kern != nil {
		st.kern(d, d, nil, c)
	}
}

// inputRun returns n elements of an input operand's current row from
// column col as a unit-stride slice: a virtual register's run, the buffer
// itself when its innermost stride is 1, gathered into scratch otherwise.
func inputRun[T tensor.Elem](w *nestWorker, dt tensor.DType, buf tensor.Buffer, acc operandAccess, col, n int) []T {
	switch acc.slot {
	case slotNone, slotConst:
		return nil
	case slotVirtual, slotRing:
		return virtualRun[T](w, dt, acc, n)
	}
	src, _ := tensor.RawSlice[T](buf)
	off := w.offs[acc.slot] + col*acc.stride
	if acc.stride == 1 {
		return src[off : off+n]
	}
	s := slabOf[T](w, dt)[acc.row:][:n]
	for i := range s {
		s[i] = src[off]
		off += acc.stride
	}
	return s
}

// arg is a constant operand's value in the vector w runs under; zero for
// any other operand.
func (w *nestWorker) arg(acc operandAccess) scalar {
	if acc.slot != slotConst {
		return scalar{}
	}
	c := &w.consts[acc.row]
	return scalar{c.Float(), c.Int()}
}

// virtualRun is the current run of a virtual operand.
func virtualRun[T tensor.Elem](w *nestWorker, dt tensor.DType, acc operandAccess, n int) []T {
	off := acc.row
	if acc.slot == slotRing {
		off += w.slot
	}
	return slabOf[T](w, dt)[off : off+n]
}

// sweep runs flat elements [lo, hi) of the nest's iteration space (row
// major: rows of inner elements) through every step, on worker w. A fold
// nest's caller sets w.acc first.
func (ns *nest) sweep(w *nestWorker, ops [][3]tensor.Buffer, lo, hi int) {
	copy(w.offs, ns.bases)
	// Seek the odometer to the row holding lo.
	row, col := lo/ns.inner, lo%ns.inner
	for d := len(ns.outer) - 1; d >= 0; d-- {
		c := row % ns.outer[d]
		row /= ns.outer[d]
		w.coords[d] = c
		for s, stride := range ns.strides[d] {
			w.offs[s] += c * stride
		}
	}
	steps := ns.steps
	if lag := ns.lag; lag != nil {
		w.edge = math.MinInt
		if lo > 0 {
			w.edge = w.offs[lag.slot] + col*lag.stride + lag.ahead
		}
		if lag.alias {
			steps = steps[:len(steps)-1]
		}
	}
	for lo < hi {
		end := min(ns.inner, col+hi-lo)
		for c := col; c < end; c += fusedBlockSize {
			n := min(fusedBlockSize, end-c)
			if ns.lag != nil {
				ns.lagBegin(w, ops, c, n)
			}
			for i := 0; i < len(steps); i += steps[i].width {
				steps[i].code.run(w, ops[i:], c, n)
			}
		}
		lo += end - col
		col = 0
		if lo < hi {
			ns.advance(w)
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

// runNest executes a compiled nest against m's current register bindings
// under the constant vector consts. The bindings are the ones it was
// compiled for: Plan.Execute checked them (registerFile.fits), or execBound
// compiled it for them. Result registers materialize on demand; so do the
// inputs of a fused cluster (virtual registers bind nothing), while a single
// instruction requires its inputs bound. A single elementwise instruction
// reads an input that overlaps its result's buffer through another window
// from a snapshot taken before the sweep; runFold orders an aliased fold
// itself.
func (m *Machine) runNest(p *bytecode.Program, ns *nest, consts []bytecode.Constant) error {
	m.frame.ops = grown(m.frame.ops, len(ns.steps))
	ops := m.frame.ops
	defer clear(ops) // the frame must not pin buffers between executions
	for si := range ns.steps {
		st := &ns.steps[si]
		in := &p.Instrs[st.index]
		var bufs [3]tensor.Buffer
		for k, o := range operands(in) {
			span := st.ops[k]
			if !o.IsReg() || span.virtual {
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
			if span.lo < 0 || span.hi >= buf.Len() {
				return instrErr(p, st.index, fmt.Errorf("view of %s spans elements [%d, %d] of a %d-element buffer",
					o.Reg, span.lo, span.hi, buf.Len()))
			}
			if k > 0 && !ns.fused && ns.fold == 0 && buf == bufs[0] && misaligned(o, in.Out.View) {
				buf = buf.Clone()
			}
			bufs[k] = buf
		}
		if st.code == nil && st.width > 0 {
			return instrErr(p, st.index, fmt.Errorf("no kernel for %s", in.Op))
		}
		ops[si] = bufs
	}

	k := len(ns.steps)
	m.stats.instructions.Add(int64(k))
	m.stats.sweeps.Add(1)
	m.stats.elements.Add(int64(ns.total * k))
	if ns.fused {
		m.stats.fusedInstructions.Add(int64(k))
		m.stats.chainedInstructions.Add(int64(ns.chained))
		m.countFusedDTypes(p, ns)
	}
	if ns.fold != 0 {
		if ns.fused {
			m.stats.fusedReductions.Add(1)
		}
		if err := m.runFold(p, ns, ops, consts); err != nil {
			return instrErr(p, ns.end-1, err)
		}
	} else {
		count, size := m.par.chunks(ns.total, m.cfg.ParallelThreshold)
		step := ns.total
		if ns.serial {
			// One element at a time, in the view's order: a later write of
			// an element wins, and a read sees the earlier ones.
			count, step = 1, 1
		}
		workers := m.frame.prepare(ns, count, consts)
		if count == 1 {
			m.sweepSerial(ns, &workers[0], ops, step)
		} else {
			m.par.parallelFor(ns.total, m.cfg.ParallelThreshold, func(lo, hi int) {
				ns.sweep(&workers[lo/size], ops, lo, hi)
			})
		}
		if ns.lag != nil {
			for i := range workers {
				ns.drain(&workers[i], ops)
			}
		}
	}
	if len(ns.steps) < ns.end-ns.start {
		// The BH_FREEs inside the cluster: no step after one touches its register.
		for i := ns.start; i < ns.end; i++ {
			if in := &p.Instrs[i]; in.Op == bytecode.OpFree {
				m.regs.free(in.Out.Reg)
			}
		}
	}
	return nil
}

// sweepSerial sweeps all of ns on worker w, step elements per call.
func (m *Machine) sweepSerial(ns *nest, w *nestWorker, ops [][3]tensor.Buffer, step int) {
	w.acc = foldAcc{}
	for lo := 0; lo < ns.total; lo += step {
		ns.sweep(w, ops, lo, min(lo+step, ns.total))
	}
}

// runFold drives a fold nest over the flat ranges of the strategy
// sweepStrategyFor picks for its fold: whole lines per worker; each line's
// chunks, their partials merged in chunk order — a scan's then rescanned
// from the offsets the merge leaves (the three-pass scan); or one worker.
// The fold order — and with it the result — never depends on the worker
// count. A lone fold whose output buffer is its input's runs serially —
// a scan unless through the input's own injective window, a reduction
// unless its lines are chunked — and, where the windows overlap, in the
// accessor engine's order: a reduction sweeps line by line, so that no
// gathered block reads past a result not yet written, and a scan element
// by element. An empty axis fills a reduction's identity.
func (m *Machine) runFold(p *bytecode.Program, ns *nest, ops [][3]tensor.Buffer, consts []bytecode.Constant) error {
	in, line, fops := &p.Instrs[ns.end-1], ns.line, ops[len(ops)-1]
	if line == 0 {
		base, ok := in.Op.ReduceBase()
		switch {
		case ns.fold == bytecode.KindScan: // no output elements
			return nil
		case !ok: // there is no index of an empty axis's extreme
			return fmt.Errorf("%s reduction over empty axis has no identity", in.Op)
		}
		return fillReduceIdentity(base, fops[0], in.Out.View)
	}
	lines, step := ns.total/line, ns.total
	strategy := m.sweepStrategyFor(in.Out.View, lines, line)
	if fops[0] == fops[1] {
		overlap := in.Out.View.Overlaps(in.In1.View)
		switch {
		case ns.fold == bytecode.KindReduction:
			if strategy == sweepSplitOutputs {
				strategy = sweepSerial
			}
			if overlap {
				step = line
			}
		case !in.Out.View.Equal(in.In1.View) || !viewInjective(in.Out.View):
			if strategy = sweepSerial; overlap {
				step = 1
			}
		}
	}
	switch strategy {
	case sweepSplitOutputs:
		count, size := m.par.chunks(lines, 2)
		ws := m.frame.prepare(ns, count, consts)
		m.par.parallelFor(lines, 2, func(lo, hi int) {
			w := &ws[lo/size]
			w.acc = foldAcc{pos: lo * line}
			ns.sweep(w, ops, lo*line, hi*line)
		})
	case sweepChunkAxis:
		_, nc := chunkParams(line)
		count, per := m.par.chunks(nc, 2)
		ws := m.frame.prepare(ns, count, consts)
		m.frame.parts = grown(m.frame.parts, nc)
		fold := ns.steps[len(ns.steps)-1].code.(folder)
		for l := range lines {
			m.foldPass(ns, ws, ops, per, l, true)
			if fold.merge(fops[0], m.frame.parts, l) {
				m.foldPass(ns, ws, ops, per, l, false)
			}
		}
	default:
		m.sweepSerial(ns, &m.frame.prepare(ns, 1, consts)[0], ops, step)
	}
	return nil
}

// foldPass sweeps every chunk of line l, per chunks to a worker of ws: with
// dry set, folding each into its partial in m.frame.parts; otherwise
// rescanning each from the offset its partial holds.
func (m *Machine) foldPass(ns *nest, ws []nestWorker, ops [][3]tensor.Buffer, per, l int, dry bool) {
	parts := m.frame.parts
	if len(ws) == 1 { // no closure: one worker allocates nothing
		ns.foldChunks(&ws[0], ops, parts, l, 0, len(parts), dry)
		return
	}
	m.par.parallelFor(len(parts), 2, func(lo, hi int) { ns.foldChunks(&ws[lo/per], ops, parts, l, lo, hi, dry) })
}

// foldChunks sweeps chunks [lo, hi) of line l on w, as foldPass.
func (ns *nest) foldChunks(w *nestWorker, ops [][3]tensor.Buffer, parts []foldAcc, l, lo, hi int, dry bool) {
	size, _ := chunkParams(ns.line)
	for c := lo; c < hi; c++ {
		start, end := chunkBounds(c, size, ns.line)
		w.acc = foldAcc{f: parts[c].f, i: parts[c].i, pos: l*ns.line + start, dry: dry}
		ns.sweep(w, ops, l*ns.line+start, l*ns.line+end)
		parts[c] = w.acc
	}
}

// unfuse runs the instructions of ns one at a time, each as a nest of its
// own compiled for its bound buffers (execBound): how Plan.Execute runs a
// nest under bindings other than the ones it was compiled for.
func (m *Machine) unfuse(p *bytecode.Program, ns *nest, consts []bytecode.Constant) error {
	for i, k := ns.start, ns.konst; i < ns.end; i++ {
		if in := &p.Instrs[i]; in.Op == bytecode.OpFree {
			m.regs.free(in.Out.Reg)
		} else if err := m.execBound(p, i, k, consts); err != nil {
			return err
		}
		k += constCount(&p.Instrs[i])
	}
	return nil
}

// execBound runs instruction i, whose constants start at index konst of
// consts, as a nest of its own compiled outside any plan and arena for the
// buffers bound to its registers.
func (m *Machine) execBound(p *bytecode.Program, i, konst int, consts []bytecode.Constant) error {
	ns := new(nest)
	shape, _ := sweepAt(p, i)
	(&compileArena{bound: &m.regs}).layoutNest(ns, p, i, i+1, shape, liveness{}, nil)
	ns.konst = konst
	ns.attach(p, &kernelSlabs{})
	return m.runNest(p, ns, consts)
}

// foldAcc is a worker's fold state: the accumulator, in its class's field;
// the winning axis position of an index fold; the flat position of the
// next element, and how many elements of its line the worker has folded;
// dry: a chunked scan's first pass, which folds its chunk and writes
// nothing.
type foldAcc struct {
	f      float64
	i      int64
	idx    int
	pos, n int
	dry    bool
}

func accOf[E int64 | float64](a *foldAcc) *E {
	if p, ok := any(&a.f).(*E); ok {
		return p
	}
	return any(&a.i).(*E)
}

// folder is a fold step's code: merge combines a line's chunk partials in
// chunk order and writes line l, or, for a scan, turns them into each
// chunk's offset and reports that the chunks are to be rescanned.
type folder interface {
	stepCode
	merge(out tensor.Buffer, parts []foldAcc, l int) (rescan bool)
}

// foldStep is a reduction's fold nest step. It folds each run of its input
// — cut at line ends — into the worker's accumulator in its computation
// class (E: int64 when the input and, for a value fold, the output are
// integers; float64 otherwise), widening each element as Buffer.Get or
// GetInt does, and writes a line's result once the worker has folded all
// of it. Value folds seed with the first element; index folds carry the
// winner's position, lowest index winning ties and the first NaN winning
// outright. Each run goes through one run kernel call (valueFold,
// argFold); the per-element base op k and comparison better only merge
// chunk partials.
type foldStep[T tensor.Elem, E int64 | float64] struct {
	in      operandAccess
	dt      tensor.DType
	line    int
	out     tensor.View                                 // the reduction's result: line l is its l-th element, row major
	kern    func(acc E, s []T) E                        // a value fold's run kernel
	argKern func(best E, at int, s []T, j int) (E, int) // an index fold's run kernel
	k       func(a, b E) E                              // a value fold's base op
	set     func(tensor.Buffer, int, E)                 // Buffer.Set or SetInt
	better  func(v, best E) bool                        // an index fold's comparison (argBetter)
}

// newFoldStep compiles the reduction or scan in — the last step st of a
// fold nest with lines of line elements — for its input's storage type.
func newFoldStep(in *bytecode.Instruction, st *nestStep, line int) stepCode {
	switch st.ops[1].dtype {
	case tensor.Float64:
		return foldStepFor[float64](in, st, line)
	case tensor.Float32:
		return foldStepFor[float32](in, st, line)
	case tensor.Int64:
		return foldStepFor[int64](in, st, line)
	case tensor.Int32:
		return foldStepFor[int32](in, st, line)
	case tensor.Bool, tensor.Uint8:
		return foldStepFor[uint8](in, st, line)
	}
	return nil
}

func foldStepFor[T tensor.Elem](in *bytecode.Instruction, st *nestStep, line int) stepCode {
	if !st.ops[1].dtype.IsFloat() && (in.Op.ArgReduce() || !st.ops[0].dtype.IsFloat()) {
		return foldStepOf[T](in, st, line, intBinaryKernel, tensor.Buffer.SetInt)
	}
	return foldStepOf[T](in, st, line, floatBinaryKernel, tensor.Buffer.Set)
}

func foldStepOf[T tensor.Elem, E int64 | float64](in *bytecode.Instruction, st *nestStep, line int,
	kernelOf func(bytecode.Opcode) (func(a, b E) E, bool), set func(tensor.Buffer, int, E)) stepCode {
	fs := &foldStep[T, E]{in: st.acc[1], dt: st.ops[1].dtype, line: line, out: in.Out.View, set: set}
	base, ok := in.Op.ReduceBase()
	if !ok {
		argmax := in.Op == bytecode.OpArgmaxReduce
		fs.better, fs.argKern = argBetter[E](argmax), argFold[T, E](argmax)
	} else if fs.k, ok = kernelOf(base); !ok {
		return nil
	} else if fs.kern, ok = valueFold[T, E](base); !ok {
		return nil
	}
	if in.Op.Info().Kind == bytecode.KindScan {
		return scanStepOf(fs, base, st)
	}
	return fs
}

func (st *foldStep[T, E]) run(w *nestWorker, ops [][3]tensor.Buffer, col, n int) {
	x, a := inputRun[T](w, st.dt, ops[0][1], st.in, col, n), &w.acc
	for len(x) > 0 {
		j := a.pos % st.line // x[0]'s position on the reduced axis
		m := min(len(x), st.line-j)
		st.fold(a, x[:m], j)
		x, a.pos, a.n = x[m:], a.pos+m, a.n+m
		if a.n == st.line {
			st.write(ops[0][0], a, a.pos/st.line-1)
			a.n = 0
		}
	}
}

// fold folds s, the elements of one line from axis position j on.
func (st *foldStep[T, E]) fold(a *foldAcc, s []T, j int) {
	acc := accOf[E](a)
	if a.n == 0 {
		*acc, a.idx, s, j = E(s[0]), j, s[1:], j+1
	}
	if st.kern != nil {
		*acc = st.kern(*acc, s)
	} else {
		*acc, a.idx = st.argKern(*acc, a.idx, s, j)
	}
}

// write stores a's result for line l.
func (st *foldStep[T, E]) write(out tensor.Buffer, a *foldAcc, l int) {
	off := st.out.Offset
	for d := st.out.NDim() - 1; d >= 0; d-- {
		off += l % st.out.Shape[d] * st.out.Strides[d]
		l /= st.out.Shape[d]
	}
	if st.k == nil {
		out.SetInt(off, int64(a.idx))
	} else {
		st.set(out, off, *accOf[E](a))
	}
}

func (st *foldStep[T, E]) merge(out tensor.Buffer, parts []foldAcc, l int) bool {
	acc := accOf[E](&parts[0])
	for i := 1; i < len(parts); i++ {
		switch v := *accOf[E](&parts[i]); {
		case st.k != nil:
			*acc = st.k(*acc, v)
		case st.better(v, *acc):
			*acc, parts[0].idx = v, parts[i].idx
		}
	}
	st.write(out, &parts[0], l)
	return false
}

func (*foldStep[T, E]) store(*nestWorker, tensor.Buffer, int, int, int, int) {}

// scanStep is a scan's fold nest step: each run of its input — cut at line
// ends — continues the worker's accumulator, and every prefix goes to the
// output as Buffer.Set or SetInt stores it; a line's first element seeds
// it. One run kernel call (scanRun) scans each piece. A chunked scan's
// first pass (foldAcc.dry) only folds each chunk to its total, as its
// foldStep.
type scanStep[D, T tensor.Elem, E int64 | float64] struct {
	foldStep[T, E]
	dst   operandAccess
	dstDT tensor.DType
	scan  func(acc E, d []D, s []T) E
}

func scanStepOf[T tensor.Elem, E int64 | float64](fs *foldStep[T, E], base bytecode.Opcode, st *nestStep) stepCode {
	switch st.ops[0].dtype {
	case tensor.Float64:
		return newScanStep[float64](fs, base, st)
	case tensor.Float32:
		return newScanStep[float32](fs, base, st)
	case tensor.Int64:
		return newScanStep[int64](fs, base, st)
	case tensor.Int32:
		return newScanStep[int32](fs, base, st)
	case tensor.Bool, tensor.Uint8:
		return newScanStep[uint8](fs, base, st)
	}
	return nil
}

func newScanStep[D, T tensor.Elem, E int64 | float64](fs *foldStep[T, E], base bytecode.Opcode, st *nestStep) stepCode {
	dt := st.ops[0].dtype
	return &scanStep[D, T, E]{foldStep: *fs, dst: st.acc[0], dstDT: dt, scan: scanRun[D, T, E](base, dt == tensor.Bool)}
}

func (st *scanStep[D, T, E]) run(w *nestWorker, ops [][3]tensor.Buffer, col, n int) {
	x, a := inputRun[T](w, st.dt, ops[0][1], st.in, col, n), &w.acc
	if a.dry {
		st.fold(a, x, 0)
		a.n += n
		return
	}
	dst, _ := tensor.RawSlice[D](ops[0][0])
	off := w.offs[st.dst.slot] + col*st.dst.stride
	var d []D
	if st.dst.stride == 1 {
		d = dst[off : off+n]
	} else {
		d = slabOf[D](w, st.dstDT)[st.dst.row:][:n]
	}
	acc := accOf[E](a)
	for i := 0; i < n; {
		m := min(n-i, st.line-a.pos%st.line)
		s, o := x[i:i+m], d[i:i+m]
		if a.pos%st.line == 0 {
			*acc = E(s[0])
			o[0] = store[D](*acc, st.dstDT == tensor.Bool)
			s, o = s[1:], o[1:]
		}
		*acc = st.scan(*acc, o, s)
		i, a.pos = i+m, a.pos+m
	}
	if st.dst.stride != 1 {
		scatter(dst, d, off, st.dst.stride)
	}
}

// merge turns a line's chunk totals into each chunk's offset — the fold of
// the chunks before it — in chunk order.
func (st *scanStep[D, T, E]) merge(_ tensor.Buffer, parts []foldAcc, _ int) bool {
	run := *accOf[E](&parts[0])
	for i := 1; i < len(parts); i++ {
		p := accOf[E](&parts[i])
		*p, run = run, st.k(run, *p)
	}
	return true
}

// constCount is how many entries in adds to its program's constant vector.
func constCount(in *bytecode.Instruction) int {
	return int(b2i(in.In1.IsConst()) + b2i(in.In2.IsConst()))
}
