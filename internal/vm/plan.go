package vm

import (
	"fmt"

	"bohrium/internal/bytecode"
	"bohrium/internal/faultinject"
)

// Plan is the reusable compilation of one program: validation, fusion
// cluster discovery, every sweep's loop nest and run kernels (a reduction
// epilogue's fold included) — everything that does not depend on buffer
// bindings.
// A Plan may be executed many times, against any Machine on any Engine;
// each Execute resolves register buffers from that machine's register
// file afresh (new input bindings, recycled temporaries) without
// re-running any analysis. Execute is read-only on the Plan, so one Plan
// may execute on several Machines concurrently — the shared plan cache
// and the backend's async Executor both depend on that, which is why a cached or
// queued plan must never be mutated: rebind constants with WithConstants
// (clone); PatchConstants (in place) is only for a plan the caller owns
// outright and is not executing anywhere. Keep any new Plan/nest state
// immutable after Compile for the same reason.
type Plan struct {
	prog     *bytecode.Program
	fused    bool
	clusters []cluster
	live     *liveness // structural, like clusters: shared by constant-rebound clones
	nests    []*nest   // per cluster; non-nil for sweeps
}

// Compile analyzes p into a Plan. Validation runs here (unless the
// machine's SkipValidation is set), so Execute can trust the program.
// The plan keeps a reference to p; callers must not mutate it afterwards
// except through PatchConstants.
func (m *Machine) Compile(p *bytecode.Program) (*Plan, error) {
	if !m.cfg.SkipValidation {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrExec, err)
		}
	}
	live := newLiveness(p)
	pl := &Plan{prog: p, fused: m.cfg.Fusion, clusters: m.planClusters(p, live), live: live}
	pl.compileClusters()
	return pl, nil
}

// liveness is the one place the deadness rule lives: a register may skip
// materialization only when the batch itself declares its buffer dead — it
// is freed later in the batch, nothing else references it from there on,
// and it is neither bound from outside nor observed (lazy front ends treat
// any other written register as defined for the next batch). One pass per
// program records, per register, 1 + the index of the last instruction
// that references it other than BH_FREE, and of the last BH_FREE (0: none).
type liveness struct{ refs, frees []int }

func newLiveness(p *bytecode.Program) *liveness {
	n := len(p.Regs)
	lv := &liveness{refs: make([]int, 2*n)}
	lv.refs, lv.frees = lv.refs[:n], lv.refs[n:]
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
func (lv *liveness) deadAfter(r bytecode.RegID, j int) bool {
	return uint(r) < uint(len(lv.refs)) && lv.refs[r] <= j+1 && lv.frees[r] > j+1
}

// compileClusters builds the buffer-independent executable form of every
// cluster from the plan's current program: the loop nest of each sweep.
// Nests capture constant operands, so a constant rebind recompiles them
// (closures and small tables only — no buffer work).
func (pl *Plan) compileClusters() {
	pl.nests = make([]*nest, len(pl.clusters))
	for i, cl := range pl.clusters {
		if cl.sweep {
			pl.nests[i] = compileNest(pl.prog, cl.start, cl.end, cl.shape, pl.live, cl.lagged)
		}
	}
}

// Program returns the compiled program. Treat it as read-only: the plan's
// cluster analysis describes exactly this instruction sequence.
func (pl *Plan) Program() *bytecode.Program { return pl.prog }

// WithConstants returns a plan identical to pl but with its constant
// operands rebound to vals (in Program.Constants order); pl itself is
// never mutated, so it may be executing concurrently — on this machine's
// async executor or on another session sharing the engine's plan cache.
// When vals already equal the plan's constants, pl is returned as-is.
// Cluster discovery is structural and carries over; nests capture
// immediates, so they are recompiled against the patched program.
func (pl *Plan) WithConstants(vals []bytecode.Constant) (*Plan, error) {
	prog := pl.prog.Clone()
	changed, err := prog.SetConstants(vals)
	if err != nil {
		return nil, err
	}
	if !changed {
		return pl, nil
	}
	np := &Plan{prog: prog, fused: pl.fused, clusters: pl.clusters, live: pl.live}
	np.compileClusters()
	return np, nil
}

// PatchConstants rebinds the plan's constant operands to vals (in
// Program.Constants order), in place. Only for plans the caller owns
// outright and is not executing anywhere: cached plans are shared and
// immutable — the plan cache uses WithConstants instead.
func (pl *Plan) PatchConstants(vals []bytecode.Constant) error {
	changed, err := pl.prog.SetConstants(vals)
	if err != nil || !changed {
		return err
	}
	pl.compileClusters()
	return nil
}

// Execute runs the plan against m's current register bindings. On error
// the register file may hold partial results; the error reports the
// failing instruction. Errors wrap their cause with %w all the way
// down, so typed sentinels (ErrMemoryPressure, an injected fault's Err)
// survive to errors.Is at the host.
func (pl *Plan) Execute(m *Machine) error {
	// Chaos sites: a deliberately slow plan and a crashing worker, armed
	// per session label, inert otherwise.
	faultinject.Delay(faultinject.SlowExec, m.cfg.FaultLabel)
	faultinject.Panic(faultinject.WorkerPanic, m.cfg.FaultLabel)
	p := pl.prog
	m.regs.grow(len(p.Regs))
	for _, r := range p.Inputs {
		if m.regs.get(r) == nil {
			return fmt.Errorf("%w: input register %s not bound", ErrExec, r)
		}
	}
	// Cluster by cluster (with fusion off, instruction by instruction).
	// Every execution path annotates its error with the index and
	// disassembly of the instruction that failed, not merely the
	// cluster's first.
	for i, cl := range pl.clusters {
		var err error
		if pl.nests[i] != nil {
			err = m.runNest(p, pl.nests[i])
		} else {
			err = m.interpret(p, cl.start, cl.end)
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
