package vm

import (
	"fmt"
	"slices"

	"bohrium/internal/bytecode"
	"bohrium/internal/faultinject"
	"bohrium/internal/tensor"
)

// Plan is the reusable, binding-independent compilation of one program:
// its clusters, each a run of instructions [start, end) described by a
// nest — a sweep's loop nest and run kernels (a reduction epilogue's fold
// included) — or a system or extension byte-code, which has no steps. Its
// kernels hold no constant value: each Execute binds register buffers and
// a constant vector afresh and is read-only on the Plan, so one Plan may
// execute on several Machines under several vectors at once — the shared
// plan cache and an async backend's queue depend on that — and is never
// mutated after Compile.
type Plan struct {
	prog     *bytecode.Program
	consts   []bytecode.Constant // prog's constant vector
	fused    bool
	clusters []nest
}

// Compile validates p and analyzes it into a Plan (CompileValidated).
// Validation failures wrap ErrExec.
func (m *Machine) Compile(p *bytecode.Program) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrExec, err)
	}
	return m.CompileValidated(p), nil
}

// CompileValidated analyzes p, which the caller has validated (as
// backend.Resolver does, once per program), into a Plan that keeps a
// reference to p. Only m's compiling goroutine may call it.
func (m *Machine) CompileValidated(p *bytecode.Program) *Plan {
	ar := &m.arena
	m.planClusters(p, ar.liveness(p))
	consts := p.AppendConstants(make([]bytecode.Constant, 0, ar.consts))
	pl := &Plan{prog: p, consts: consts, fused: m.cfg.Fusion, clusters: slices.Clone(ar.clusters)}
	var ks kernelSlabs
	for i := range pl.clusters {
		if ns := &pl.clusters[i]; ns.steps != nil {
			ns.attach(p, &ks) // a step without a kernel fails at execution
		}
	}
	return pl
}

// compileArena is a Machine's compile scratch, reused across misses and
// touched only by the compiling goroutine. No Plan references it.
type compileArena struct {
	refs     []int // liveness
	clusters []nest
	views    []*tensor.View // one layout's operand slots
	strides  []int
	virt     []virtualReg
	accs     []regAccess
	freed    []bytecode.RegID // registers the BH_FREEs inside the cluster being planned release
	consts   int              // constants in the program planned last
	bound    *registerFile    // non-nil: operands take the dtypes of their bound buffers (execBound)
	index    tensor.View      // the row-major layout of the iteration shape of the nest being laid out
}

// liveness holds the deadness rule: a register may skip materialization
// only when the batch itself declares its buffer dead — it is freed later
// in the batch, nothing else references it from there on, and it is
// neither bound from outside nor observed (lazy front ends treat any
// other written register as defined for the next batch). One pass per
// program records, per register, 1 + the index of the last instruction
// that references it other than BH_FREE, and of the last BH_FREE (0:
// none). rewrite.DeadAfter states the same rule again; ROADMAP item 2
// makes them one.
type liveness struct{ refs, frees []int }

// liveness computes p's liveness in the arena.
func (ar *compileArena) liveness(p *bytecode.Program) liveness {
	n := len(p.Regs)
	ar.refs = grown(ar.refs, 2*n)
	clear(ar.refs)
	lv := liveness{refs: ar.refs[:n], frees: ar.refs[n:]}
	for k := range p.Instrs {
		last := lv.refs
		if p.Instrs[k].Op == bytecode.OpFree {
			last = lv.frees
		}
		for _, o := range operands(&p.Instrs[k]) {
			if o.IsReg() && uint(o.Reg) < uint(n) {
				last[o.Reg] = k + 1
			}
		}
	}
	for _, regs := range [2][]bytecode.RegID{p.Inputs, p.Outputs} {
		for _, r := range regs {
			if uint(r) < uint(n) {
				lv.refs[r] = len(p.Instrs) + 1 // bound or observed: referenced beyond the last instruction
			}
		}
	}
	return lv
}

// deadAfter reports whether r's buffer is provably dead once instruction j
// has run.
func (lv liveness) deadAfter(r bytecode.RegID, j int) bool {
	return uint(r) < uint(len(lv.refs)) && lv.refs[r] <= j+1 && lv.frees[r] > j+1
}

// freedBy reports whether r's last BH_FREE follows every other reference
// to it and is instruction j or an earlier one. A cluster ending at j runs
// the BH_FREEs inside it after its sweep, so such an r is then dead.
func (lv liveness) freedBy(r bytecode.RegID, j int) bool {
	return uint(r) < uint(len(lv.refs)) && lv.refs[r] < lv.frees[r] && lv.frees[r] <= j+1
}

// Program returns the compiled program. Treat it as read-only: the plan's
// cluster analysis describes exactly this instruction sequence.
func (pl *Plan) Program() *bytecode.Program { return pl.prog }

// Constants returns the constant vector the plan was compiled from, in
// Program.Constants order. Treat it as read-only.
func (pl *Plan) Constants() []bytecode.Constant { return pl.consts }

// Execute runs the plan against m's current register bindings under the
// constant vector consts, in Program.Constants order — nil runs it under
// its own. consts must match the plan's constants in count and dtypes, as
// the vector of any batch with the plan's fingerprint does. On error the
// register file may hold partial results; the error reports the failing
// instruction. Errors wrap their cause with %w all the way down, so typed
// sentinels (ErrMemoryPressure, an injected fault's Err) survive to
// errors.Is at the host.
func (pl *Plan) Execute(m *Machine, consts []bytecode.Constant) error {
	// Chaos sites: a deliberately slow plan and a crashing worker, armed
	// per session label, inert otherwise.
	faultinject.Delay(faultinject.SlowExec, m.cfg.FaultLabel)
	faultinject.Panic(faultinject.WorkerPanic, m.cfg.FaultLabel)
	if consts == nil {
		consts = pl.consts
	} else if !slices.EqualFunc(consts, pl.consts, sameDType) {
		return fmt.Errorf("%w: constant vector %v does not fit the plan's %v", ErrExec, consts, pl.consts)
	}
	p := pl.prog
	m.regs.grow(len(p.Regs))
	for _, r := range p.Inputs {
		if m.regs.get(r) == nil {
			return fmt.Errorf("%w: input register %s not bound", ErrExec, r)
		}
	}
	// Cluster by cluster (with fusion off, instruction by instruction).
	// The nests were compiled for registers of their declared dtypes, each
	// in a buffer of its own; under any other bindings every nest runs one
	// instruction at a time, each compiled for its bound buffers (unfuse),
	// so fusion never shows. Every execution path annotates its error with
	// the index and disassembly of the instruction that failed, not merely
	// the cluster's first.
	fits := m.regs.fits(p)
	for i := range pl.clusters {
		cl, err := &pl.clusters[i], error(nil)
		switch {
		case cl.steps == nil:
			if err = m.exec(p, &p.Instrs[cl.start]); err != nil {
				err = instrErr(p, cl.start, err)
			}
		case fits:
			err = m.runNest(p, cl, consts)
		default:
			err = m.unfuse(p, cl, consts)
		}
		if err == nil {
			continue
		}
		if !pl.fused {
			return fmt.Errorf("%w: %w", ErrExec, err)
		}
		return fmt.Errorf("%w: cluster [%d,%d): %w", ErrExec, cl.start, cl.end, err)
	}
	return nil
}

// exec runs a system or extension byte-code: an instruction no nest runs.
func (m *Machine) exec(p *bytecode.Program, in *bytecode.Instruction) error {
	switch in.Op.Info().Kind {
	case bytecode.KindSystem:
		// SYNC is a materialization fence for the lazy front-end; the VM
		// itself is always coherent.
		if in.Op == bytecode.OpFree {
			m.regs.free(in.Out.Reg)
		}
		return nil
	case bytecode.KindExtension:
		return m.execExtension(p, in)
	}
	return fmt.Errorf("unsupported op-code %s", in.Op)
}
