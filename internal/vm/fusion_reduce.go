package vm

import (
	"fmt"
	"math"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Reduction-epilogue fusion: when a reduction over any axis — including
// the argmin/argmax index reductions — consumes the output of the
// elementwise cluster right before it, the producer chain folds into the
// reduction's accumulation loop — sum(x*y) becomes one sweep with no
// materialized temporary. Producer steps evaluate per
// element into *virtual registers* (one slot per cluster-written
// register); a register that is still referenced after the reduction is
// additionally written through to memory, so only dead temporaries skip
// materialization entirely.
//
// The fold reuses the worker-count-independent strategies of reduce.go
// (split-outputs, chunk-axis, serial) with the same chunkParams sizing, so
// Workers:1 ≡ Workers:N stays bit-for-bit for integer folds and within
// the documented reassociation tolerance for chunked float folds — and
// the fused result is bit-identical to interpreted execution, which picks
// the same strategy over the same views.

// epiSrcDesc describes one source operand of a producer step after
// virtual-register resolution: a constant, a virtual slot, or a memory
// read of (reg, view).
type epiSrcDesc struct {
	isConst bool
	cf      float64
	ci      int64
	slot    int // >= 0: virtual register slot
	reg     bytecode.RegID
	view    tensor.View
}

// epiStepDesc is one producer instruction with resolved operands.
type epiStepDesc struct {
	index   int // instruction index, for error reports
	in      *bytecode.Instruction
	dtype   tensor.DType
	outSlot int
	matDst  bool // write through to memory (register live after epilogue)
	srcs    []epiSrcDesc
	kern    linKernel // run kernel for the blockwise linear engine
}

// epiPlan is the static (buffer-independent) compilation of an epilogue
// cluster.
type epiPlan struct {
	cl       cluster
	redIdx   int
	red      *bytecode.Instruction
	shape    tensor.Shape
	axis     int // reduced axis within shape
	lineDims []int
	axLen    int
	lines    int
	outSeek  bool // seek the output cursor per line (false: single line)
	steps    []epiStepDesc
	slotOf   map[bytecode.RegID]int
	slotDT   []tensor.DType // dtype per virtual slot
	nSlots   int
	mat      map[bytecode.RegID]bool // registers written through to memory
	pSlot    int
	pFloat   bool
	intRed   bool
}

// analyzeEpilogue resolves the producer steps of a reduce cluster into an
// epiPlan, or reports false when the shapes do not line up (the caller
// then falls back to the two-sweep path).
func analyzeEpilogue(p *bytecode.Program, cl cluster, live *liveness) (*epiPlan, bool) {
	redIdx := cl.end - 1
	red := &p.Instrs[redIdx]
	shape := cl.shape
	axis := red.Axis
	lineShape := make(tensor.Shape, 0, len(shape)-1)
	for d := range shape {
		if d != axis {
			lineShape = append(lineShape, shape[d])
		}
	}
	plan := &epiPlan{
		cl:       cl,
		redIdx:   redIdx,
		red:      red,
		shape:    shape,
		axis:     axis,
		lineDims: []int(lineShape),
		axLen:    shape[axis],
		lines:    lineShape.Size(),
		slotOf:   map[bytecode.RegID]int{},
	}
	outView := red.Out.View
	if outView.Size() != plan.lines {
		return nil, false
	}
	switch {
	case outView.Shape.Equal(lineShape):
		plan.outSeek = true
	case plan.lines == 1:
		plan.outSeek = false // single output element at outView.Offset
	default:
		return nil, false
	}

	type writeRec struct {
		step int
		view tensor.View
	}
	writes := map[bytecode.RegID][]writeRec{}
	for k := cl.start; k < redIdx; k++ {
		in := &p.Instrs[k]
		if _, ok := plan.slotOf[in.Out.Reg]; !ok {
			plan.slotOf[in.Out.Reg] = len(plan.slotOf)
			ri, _ := p.Reg(in.Out.Reg)
			plan.slotDT = append(plan.slotDT, ri.DType)
		}
		writes[in.Out.Reg] = append(writes[in.Out.Reg], writeRec{k, in.Out.View})
	}
	plan.nSlots = len(plan.slotOf)

	// A register skips materialization only when it is provably dead
	// after the reduction.
	materialize := map[bytecode.RegID]bool{}
	for r := range plan.slotOf {
		if !live.deadAfter(r, redIdx) {
			materialize[r] = true
		}
	}

	for k := cl.start; k < redIdx; k++ {
		in := &p.Instrs[k]
		ri, _ := p.Reg(in.Out.Reg)
		sd := epiStepDesc{index: k, in: in, dtype: ri.DType, outSlot: plan.slotOf[in.Out.Reg]}
		for _, opnd := range in.Inputs() {
			if opnd.IsConst() {
				sd.srcs = append(sd.srcs, epiSrcDesc{isConst: true, cf: opnd.Const.Float(), ci: opnd.Const.Int(), slot: -1})
				continue
			}
			d := epiSrcDesc{slot: -1, reg: opnd.Reg, view: opnd.View}
			// The most recent preceding in-cluster write decides how the
			// read resolves: same window → the virtual value; a different
			// (necessarily disjoint) window → real memory, which forces
			// the register's writes to land there too.
			lastView, hasWrite := tensor.View{}, false
			for _, w := range writes[opnd.Reg] {
				if w.step < k {
					lastView, hasWrite = w.view, true
				}
			}
			if hasWrite {
				if lastView.Equal(opnd.View) {
					d.slot = plan.slotOf[opnd.Reg]
				} else {
					materialize[opnd.Reg] = true
				}
			}
			sd.srcs = append(sd.srcs, d)
		}
		if cl.linear {
			ks := make([]ksrc, len(sd.srcs))
			for i, d := range sd.srcs {
				ks[i] = ksrc{isConst: d.isConst, cf: d.cf, ci: d.ci}
			}
			sd.kern = newLinKernel(sd.dtype, in.Op, ks)
		}
		plan.steps = append(plan.steps, sd)
	}
	for i := range plan.steps {
		plan.steps[i].matDst = materialize[plan.steps[i].in.Out.Reg]
	}
	plan.mat = materialize

	pInfo, _ := p.Reg(red.In1.Reg)
	outInfo, _ := p.Reg(red.Out.Reg)
	plan.pSlot = plan.slotOf[red.In1.Reg]
	plan.pFloat = pInfo.DType.IsFloat()
	plan.intRed = !outInfo.DType.IsFloat() && !pInfo.DType.IsFloat()
	return plan, true
}

// cursor tracks one operand's buffer position along the line dimensions.
// It carries positions only; typed array access lives in the step
// closures.
type cursor struct {
	// offset is the start index for element 0 of the iteration space.
	offset int
	// strides are per-dimension element strides in the shared shape.
	strides []int
	idx     int
}

func newCursor(v tensor.View) *cursor {
	return &cursor{offset: v.Offset, strides: append([]int(nil), v.Strides...)}
}

// seek positions the cursor at linear element i of the iteration shape.
func (c *cursor) seek(shape []int, i int) {
	idx := c.offset
	for d := len(shape) - 1; d >= 0; d-- {
		if shape[d] == 0 {
			continue
		}
		idx += (i % shape[d]) * c.strides[d]
		i /= shape[d]
	}
	c.idx = idx
}

// epiMem tracks one memory operand's position: a cursor over the line
// dimensions plus the stride of the folded axis. base is the buffer index
// of (line, 0); the element at axis position j is base + j*lastStride.
type epiMem struct {
	lineCur    *cursor
	lastStride int
	base       int
}

func newEpiMem(v tensor.View, axis int) *epiMem {
	lineView, axStride, _ := removeAxis(v, axis)
	return &epiMem{lineCur: newCursor(lineView), lastStride: axStride}
}

// epiEval is one worker's compiled evaluator. Slots and cursor positions
// are mutable per-element state, so every worker chunk builds its own.
type epiEval struct {
	steps    []func(j int)
	mems     []*epiMem
	lineDims []int
	outCur   *cursor
	outSeek  bool
	fslots   []float64
	islots   []int64
	readF    func() float64
	readI    func() int64
	bufs     []tensor.Buffer // memory buffers touched (for alias checks)
}

// rebase positions every memory operand and the output cursor at line l.
func (ev *epiEval) rebase(l int) {
	for _, mem := range ev.mems {
		mem.lineCur.seek(ev.lineDims, l)
		mem.base = mem.lineCur.idx
	}
	if ev.outSeek {
		ev.outCur.seek(ev.lineDims, l)
	}
}

// eval runs every producer step at axis position j of the current line.
func (ev *epiEval) eval(j int) {
	for _, st := range ev.steps {
		st(j)
	}
}

// buildEpiEval compiles a worker-local evaluator from the plan.
func (m *Machine) buildEpiEval(p *bytecode.Program, plan *epiPlan) (*epiEval, error) {
	ev := &epiEval{
		lineDims: plan.lineDims,
		outCur:   newCursor(plan.red.Out.View),
		outSeek:  plan.outSeek,
		fslots:   make([]float64, plan.nSlots),
		islots:   make([]int64, plan.nSlots),
	}
	if !plan.outSeek {
		ev.outCur.idx = plan.red.Out.View.Offset
	}
	for i := range plan.steps {
		sd := &plan.steps[i]
		var step func(j int)
		var err error
		switch sd.dtype {
		case tensor.Float64:
			step, err = buildEpiStep[float64](m, p, plan, sd, ev)
		case tensor.Float32:
			step, err = buildEpiStep[float32](m, p, plan, sd, ev)
		case tensor.Int64:
			step, err = buildEpiStep[int64](m, p, plan, sd, ev)
		case tensor.Int32:
			step, err = buildEpiStep[int32](m, p, plan, sd, ev)
		case tensor.Bool, tensor.Uint8:
			step, err = buildEpiStep[uint8](m, p, plan, sd, ev)
		default:
			err = fmt.Errorf("fused output %s has unsupported dtype %v", sd.in.Out.Reg, sd.dtype)
		}
		if err != nil {
			return nil, instrErr(p, sd.index, err)
		}
		ev.steps = append(ev.steps, step)
	}
	if plan.pFloat {
		fsl, s := ev.fslots, plan.pSlot
		ev.readF = func() float64 { return fsl[s] }
	} else {
		isl, s := ev.islots, plan.pSlot
		ev.readF = func() float64 { return float64(isl[s]) }
		ev.readI = func() int64 { return isl[s] }
	}
	return ev, nil
}

// epiSrc is a resolved, typed source operand of a producer step.
type epiSrc[T tensor.Elem] struct {
	arr  []T
	mem  *epiMem
	slot int
	cf   float64
	ci   int64
}

// buildEpiStep compiles one producer step for its storage type, with the
// same computation-class rules as compileLoop.
func buildEpiStep[T tensor.Elem](m *Machine, p *bytecode.Program, plan *epiPlan, sd *epiStepDesc, ev *epiEval) (func(j int), error) {
	dt := sd.dtype
	intClass := !dt.IsFloat()
	isBool := dt == tensor.Bool

	var dstArr []T
	var dstMem *epiMem
	if sd.matDst {
		buf, err := m.regs.ensure(p, sd.in.Out.Reg)
		if err != nil {
			return nil, err
		}
		arr, ok := tensor.RawSlice[T](buf)
		if !ok {
			return nil, fmt.Errorf("fused output %s is not %v", sd.in.Out.Reg, dt)
		}
		dstArr = arr
		dstMem = newEpiMem(sd.in.Out.View, plan.axis)
		ev.mems = append(ev.mems, dstMem)
		ev.bufs = append(ev.bufs, buf)
	}

	resolve := func(d *epiSrcDesc) (epiSrc[T], error) {
		if d.isConst {
			return epiSrc[T]{slot: -1, cf: d.cf, ci: d.ci}, nil
		}
		if d.slot >= 0 {
			return epiSrc[T]{slot: d.slot}, nil
		}
		var buf tensor.Buffer
		if _, written := plan.slotOf[d.reg]; written {
			b, err := m.regs.ensure(p, d.reg)
			if err != nil {
				return epiSrc[T]{}, err
			}
			buf = b
		} else if buf = m.regs.get(d.reg); buf == nil {
			return epiSrc[T]{}, fmt.Errorf("input register %s has no buffer", d.reg)
		}
		arr, ok := tensor.RawSlice[T](buf)
		if !ok {
			return epiSrc[T]{}, fmt.Errorf("fused input %s is not %v", d.reg, dt)
		}
		view := d.view
		if !view.Shape.Equal(plan.shape) {
			bv, err := view.BroadcastTo(plan.shape)
			if err != nil {
				return epiSrc[T]{}, err
			}
			view = bv
		}
		mem := newEpiMem(view, plan.axis)
		ev.mems = append(ev.mems, mem)
		ev.bufs = append(ev.bufs, buf)
		return epiSrc[T]{arr: arr, mem: mem, slot: -1}, nil
	}

	srcs := make([]epiSrc[T], 0, 2)
	for i := range sd.srcs {
		s, err := resolve(&sd.srcs[i])
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, s)
	}

	loadF := func(s epiSrc[T]) func(j int) float64 {
		switch {
		case s.mem != nil:
			arr, mem := s.arr, s.mem
			return func(j int) float64 { return float64(arr[mem.base+j*mem.lastStride]) }
		case s.slot >= 0:
			if intClass {
				isl, k := ev.islots, s.slot
				return func(int) float64 { return float64(isl[k]) }
			}
			fsl, k := ev.fslots, s.slot
			return func(int) float64 { return fsl[k] }
		default:
			c := s.cf
			return func(int) float64 { return c }
		}
	}
	loadI := func(s epiSrc[T]) func(j int) int64 {
		switch {
		case s.mem != nil:
			arr, mem := s.arr, s.mem
			return func(j int) int64 { return int64(arr[mem.base+j*mem.lastStride]) }
		case s.slot >= 0:
			isl, k := ev.islots, s.slot
			return func(int) int64 { return isl[k] }
		default:
			c := s.ci
			return func(int) int64 { return c }
		}
	}

	// storeF/storeI commit one element: round through the storage type
	// into the class slot (and through to memory for live registers).
	fsl, isl, outSlot := ev.fslots, ev.islots, sd.outSlot
	storeF := func(j int, v float64) {
		t := T(v)
		fsl[outSlot] = float64(t)
		if dstArr != nil {
			dstArr[dstMem.base+j*dstMem.lastStride] = t
		}
	}
	storeI := func(j int, v int64) {
		var t T
		if isBool {
			t = b01[T](v != 0)
		} else {
			t = T(v)
		}
		isl[outSlot] = int64(t)
		if dstArr != nil {
			dstArr[dstMem.base+j*dstMem.lastStride] = t
		}
	}
	// Integer-dtype steps computed through the float class (ops with no
	// integer kernel) truncate back through the storage type.
	storeFI := func(j int, v float64) {
		var t T
		if isBool {
			t = b01[T](v != 0)
		} else {
			t = T(v)
		}
		isl[outSlot] = int64(t)
		if dstArr != nil {
			dstArr[dstMem.base+j*dstMem.lastStride] = t
		}
	}

	op := sd.in.Op
	switch len(srcs) {
	case 1:
		if intClass {
			if k, ok := intUnaryKernel(op); ok {
				la := loadI(srcs[0])
				return func(j int) { storeI(j, k(la(j))) }, nil
			}
			k, ok := floatUnaryKernel(op)
			if !ok {
				return nil, fmt.Errorf("no unary kernel for %s", op)
			}
			la := loadF(srcs[0])
			return func(j int) { storeFI(j, k(la(j))) }, nil
		}
		k, ok := floatUnaryKernel(op)
		if !ok {
			return nil, fmt.Errorf("no unary kernel for %s", op)
		}
		la := loadF(srcs[0])
		return func(j int) { storeF(j, k(la(j))) }, nil
	case 2:
		if intClass {
			if k, ok := intBinaryKernel(op); ok {
				la, lb := loadI(srcs[0]), loadI(srcs[1])
				return func(j int) { storeI(j, k(la(j), lb(j))) }, nil
			}
			k, ok := floatBinaryKernel(op)
			if !ok {
				return nil, fmt.Errorf("no binary kernel for %s", op)
			}
			la, lb := loadF(srcs[0]), loadF(srcs[1])
			return func(j int) { storeFI(j, k(la(j), lb(j))) }, nil
		}
		k, ok := floatBinaryKernel(op)
		if !ok {
			return nil, fmt.Errorf("no binary kernel for %s", op)
		}
		la, lb := loadF(srcs[0]), loadF(srcs[1])
		return func(j int) { storeF(j, k(la(j), lb(j))) }, nil
	default:
		return nil, fmt.Errorf("fused %s has %d inputs", op, len(srcs))
	}
}

// execClusterReduce executes a cluster whose final instruction is a
// reduction epilogue, falling back to the two-sweep path when the
// epilogue analysis failed at compile time (epi nil) or buffer aliasing
// makes folding unsafe.
func (m *Machine) execClusterReduce(p *bytecode.Program, cl cluster, epi *epiPlan, producers *nest) error {
	ok, err := m.tryReduceEpilogue(p, cl, epi)
	if err != nil || ok {
		return err
	}
	// Fallback: run the producers as a plain sweep, then the reduction
	// through the interpreter.
	if producers == nil { // planned as a fold: not compiled ahead of time
		producers = compileNest(p, cl.start, cl.end-1, cl.shape, nil, nil)
	}
	if producers == nil {
		return m.interpret(p, cl.start, cl.end)
	}
	if err := m.runNest(p, producers); err != nil {
		return err
	}
	return m.interpret(p, cl.end-1, cl.end)
}

// countEpilogueStats attributes one folded sweep to the counters: every
// producer plus the reduction ran, fused, in a single launch.
func (m *Machine) countEpilogueStats(p *bytecode.Program, plan *epiPlan) {
	nProd := len(plan.steps)
	m.stats.instructions.Add(int64(nProd + 1))
	m.stats.fusedInstructions.Add(int64(nProd + 1))
	m.countFusedDTypes(p, plan.cl.start, plan.cl.end)
	m.stats.sweeps.Add(1)
	m.stats.fusedReductions.Add(1)
	m.stats.elements.Add(int64(plan.shape.Size() * (nProd + 1)))
}

// tryReduceEpilogue compiles and runs the folded sweep from the
// precomputed (buffer-independent) epilogue analysis. It returns
// (false, nil) when plan is nil or when the reduction output's buffer
// aliases a producer operand — the caller then takes the two-sweep path,
// whose serial write order tolerates the alias. Linear (all-contiguous)
// clusters run the blockwise vectorized fold; strided clusters run the
// per-element evaluator below, which matches the cost model of their
// per-element cluster sweep.
func (m *Machine) tryReduceEpilogue(p *bytecode.Program, cl cluster, plan *epiPlan) (bool, error) {
	if plan == nil {
		return false, nil
	}
	red := plan.red
	outBuf, err := m.regs.ensure(p, red.Out.Reg)
	if err != nil {
		return false, instrErr(p, plan.redIdx, err)
	}
	// The blockwise linear path assumes line-major element order and a
	// plain accumulator fold, so it serves last-axis base reductions only;
	// interior axes and (value, index) folds run the per-element evaluator.
	if cl.linear && plan.axis == len(plan.shape)-1 && !red.Op.ArgReduce() {
		return m.tryLinearEpilogue(p, plan, outBuf)
	}
	// Validate compilation once up front; this also collects the memory
	// buffers the producers touch for the alias check.
	ev0, err := m.buildEpiEval(p, plan)
	if err != nil {
		return false, err
	}
	for _, buf := range ev0.bufs {
		if buf == outBuf {
			return false, nil
		}
	}

	m.countEpilogueStats(p, plan)
	strategy := m.sweepStrategyFor(red.Out.View, plan.lines, plan.axLen)
	build := func() (*epiEval, error) { return m.buildEpiEval(p, plan) }

	if red.Op.ArgReduce() {
		// Index reductions fold a (value, index) pair with execArgReduce's
		// exact comparison semantics: lowest index wins ties, the first NaN
		// beats every number, and the comparison class follows the producer
		// dtype. Comparisons never re-associate, so every strategy is
		// bit-identical to the interpreted fold.
		if !plan.pFloat {
			better := func(v, best int64) bool { return v < best }
			if red.Op == bytecode.OpArgmaxReduce {
				better = func(v, best int64) bool { return v > best }
			}
			runArgEpilogue(m, strategy, build, ev0, better,
				func(ev *epiEval) int64 { return ev.readI() }, outBuf, plan.lines, plan.axLen)
			return true, nil
		}
		better := func(v, best float64) bool {
			return v < best || (math.IsNaN(v) && !math.IsNaN(best))
		}
		if red.Op == bytecode.OpArgmaxReduce {
			better = func(v, best float64) bool {
				return v > best || (math.IsNaN(v) && !math.IsNaN(best))
			}
		}
		runArgEpilogue(m, strategy, build, ev0, better,
			func(ev *epiEval) float64 { return ev.readF() }, outBuf, plan.lines, plan.axLen)
		return true, nil
	}

	base, _ := red.Op.ReduceBase()
	if plan.intRed {
		k, ok := intBinaryKernel(base)
		if !ok {
			return false, instrErr(p, plan.redIdx, fmt.Errorf("no int kernel for %s", base))
		}
		runEpilogue(m, strategy, build, ev0, k,
			func(ev *epiEval) int64 { return ev.readI() }, tensor.Buffer.SetInt,
			outBuf, plan.lines, plan.axLen)
		return true, nil
	}
	k, ok := floatBinaryKernel(base)
	if !ok {
		return false, instrErr(p, plan.redIdx, fmt.Errorf("no kernel for %s", base))
	}
	runEpilogue(m, strategy, build, ev0, k,
		func(ev *epiEval) float64 { return ev.readF() }, tensor.Buffer.Set,
		outBuf, plan.lines, plan.axLen)
	return true, nil
}

// runEpilogue drives the folded sweep with the chosen strategy. Chunk
// boundaries come from chunkParams alone, so results are independent of
// the worker count exactly as in reduce.go: integer folds are bit-equal
// to serial, chunked float folds carry the documented reassociation
// tolerance.
func runEpilogue[E int64 | float64](m *Machine, strategy sweepStrategy, build func() (*epiEval, error),
	ev0 *epiEval, k func(a, b E) E, read func(*epiEval) E, set func(tensor.Buffer, int, E),
	out tensor.Buffer, lines, axLen int) {

	foldLine := func(ev *epiEval, l int) {
		ev.rebase(l)
		ev.eval(0)
		acc := read(ev)
		for j := 1; j < axLen; j++ {
			ev.eval(j)
			acc = k(acc, read(ev))
		}
		set(out, ev.outCur.idx, acc)
	}

	switch strategy {
	case sweepSplitOutputs:
		m.par.parallelFor(lines, 2, func(lo, hi int) {
			ev, err := build()
			if err != nil {
				return // validated up front; cannot fail here
			}
			for l := lo; l < hi; l++ {
				foldLine(ev, l)
			}
		})
	case sweepChunkAxis:
		size, nc := chunkParams(axLen)
		partials := make([]E, nc)
		for l := 0; l < lines; l++ {
			m.par.parallelFor(nc, 2, func(lo, hi int) {
				ev, err := build()
				if err != nil {
					return
				}
				ev.rebase(l)
				for c := lo; c < hi; c++ {
					start, end := chunkBounds(c, size, axLen)
					ev.eval(start)
					acc := read(ev)
					for j := start + 1; j < end; j++ {
						ev.eval(j)
						acc = k(acc, read(ev))
					}
					partials[c] = acc
				}
			})
			acc := partials[0]
			for c := 1; c < nc; c++ {
				acc = k(acc, partials[c])
			}
			ev0.rebase(l)
			set(out, ev0.outCur.idx, acc)
		}
	default:
		for l := 0; l < lines; l++ {
			foldLine(ev0, l)
		}
	}
}

// runArgEpilogue drives a folded index reduction: the producer steps
// evaluate per element exactly as in runEpilogue, but the fold carries a
// (value, index) pair and writes the winning axis index. The chunked
// strategy combines chunk partials in chunk order with the same
// comparison, which reproduces the serial winner exactly — as in
// runArgReduce, comparisons do not re-associate.
func runArgEpilogue[E int64 | float64](m *Machine, strategy sweepStrategy, build func() (*epiEval, error),
	ev0 *epiEval, better func(v, best E) bool, read func(*epiEval) E,
	out tensor.Buffer, lines, axLen int) {

	foldLine := func(ev *epiEval, l int) {
		ev.rebase(l)
		ev.eval(0)
		best := read(ev)
		bestIdx := 0
		for j := 1; j < axLen; j++ {
			ev.eval(j)
			if v := read(ev); better(v, best) {
				best, bestIdx = v, j
			}
		}
		out.SetInt(ev.outCur.idx, int64(bestIdx))
	}

	switch strategy {
	case sweepSplitOutputs:
		m.par.parallelFor(lines, 2, func(lo, hi int) {
			ev, err := build()
			if err != nil {
				return // validated up front; cannot fail here
			}
			for l := lo; l < hi; l++ {
				foldLine(ev, l)
			}
		})
	case sweepChunkAxis:
		size, nc := chunkParams(axLen)
		vals := make([]E, nc)
		idxs := make([]int, nc)
		for l := 0; l < lines; l++ {
			m.par.parallelFor(nc, 2, func(lo, hi int) {
				ev, err := build()
				if err != nil {
					return
				}
				ev.rebase(l)
				for c := lo; c < hi; c++ {
					start, end := chunkBounds(c, size, axLen)
					ev.eval(start)
					best := read(ev)
					bestIdx := start
					for j := start + 1; j < end; j++ {
						ev.eval(j)
						if v := read(ev); better(v, best) {
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
			ev0.rebase(l)
			out.SetInt(ev0.outCur.idx, int64(bestIdx))
		}
	default:
		for l := 0; l < lines; l++ {
			foldLine(ev0, l)
		}
	}
}
