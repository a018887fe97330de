package backend

import (
	"fmt"
	"slices"

	"bohrium/internal/bytecode"
	"bohrium/internal/rewrite"
	"bohrium/internal/vm"
)

// Resolver is the one plan-cache path every host drives (the bohrium
// Context, bhd sessions, bhrun): fingerprint → lookup → optimize →
// compile → insert. Execution stays with the host. Like its Backend, a
// Resolver is driven by one goroutine.
type Resolver struct {
	be       *Backend
	pipeline *rewrite.Pipeline
	sig      Signature
	newMeta  func(batch, optimized *bytecode.Program) any
	accept   func(meta any) bool // built once: a lookup allocates nothing
	consts   []bytecode.Constant // Key's reused constant vector
	used     []bool              // pruneInputs' reused per-register flags
}

// Signature identifies how a host compiles: Scope names the host (a
// Context never replays a bhd plan, nor bhd a Context's), Options the
// rewrites, Fusion the sweep-fusion switch. Equal signatures compile any
// batch identically, so they share cached plans; unequal ones never do.
// Workers and ParallelThreshold are absent: results are bit-equal across
// them by the VM's parallel execution contract.
type Signature struct {
	Scope   string
	Options rewrite.Options
	Fusion  bool
}

// NewResolver builds the plan path of one backend session; the zero
// sig.Options rewrite nothing. newMeta, when set, derives the host's
// bookkeeping for a miss, stored with the plan and returned on every hit;
// usable, when set, vets it before a cached plan is replayed. A host
// without usable replays every plan of its signature, which is sound only
// while its rewrites create no scratch registers: a scratch id that is
// free in one session may hold a live array in another.
func NewResolver(be *Backend, sig Signature, newMeta func(batch, optimized *bytecode.Program) any, usable func(meta any) bool) *Resolver {
	if usable == nil && sig.Options.PowerAllowTemporaries {
		panic("backend: a resolver whose rewrites create scratch registers needs a usable check")
	}
	r := &Resolver{be: be, pipeline: rewrite.Build(sig.Options), sig: sig, newMeta: newMeta}
	r.accept = func(meta any) bool {
		e, ok := meta.(*entry)
		return ok && e.sig == sig && (usable == nil || usable(e.host))
	}
	return r
}

// Signature returns the signature the resolver was built with.
func (r *Resolver) Signature() Signature { return r.sig }

// entry is what the resolver caches with each plan. A parametric plan was
// compiled from the batch itself, so it runs under each hit's vector.
type entry struct {
	sig        Signature
	host       any
	parametric bool
}

// Key is a batch's plan-cache identity, computed apart from Resolve so a
// host that replays one batch can fingerprint it once: bhrun hoists Key
// out of its -repeat loop. Consts is the resolver's buffer, valid until
// its next Key; the plan cache copies what it keeps.
type Key struct {
	FP     bytecode.Fingerprint
	Consts []bytecode.Constant
	Cached bool // false: the plan cache is off, and Resolve always compiles
}

// Key fingerprints batch, unless the plan cache is off.
func (r *Resolver) Key(batch *bytecode.Program) Key {
	if !r.be.m.PlanCacheEnabled() {
		return Key{}
	}
	r.consts = batch.AppendConstants(r.consts[:0])
	return Key{FP: batch.Fingerprint(), Consts: r.consts, Cached: true}
}

// Resolution is a resolved batch: the host submits Plan under Consts
// (Backend.Submit).
type Resolution struct {
	Plan Plan // nil: the batch optimizes to nothing
	// Consts is the batch's constant vector when a parametric hit runs
	// the plan under other values than its own: a copy the host owns, so
	// an async queue may hold it. nil: the plan's own vector.
	Consts []bytecode.Constant
	Meta   any             // the host bookkeeping newMeta derived
	Report *rewrite.Report // the optimizer's report on a miss; nil on a hit
}

// OptimizeError marks a batch the rewrite pipeline rejected; any other
// Resolve error is the backend's Compile error. The text is the
// underlying error's, so each host words the stage its own way.
type OptimizeError struct{ Err error }

func (e *OptimizeError) Error() string { return e.Err.Error() }

func (e *OptimizeError) Unwrap() error { return e.Err }

// Resolve returns the plan for batch, keyed by Key(batch); batch is only
// read. A miss optimizes, validates, prunes inputs no instruction
// references (a cached plan must not demand bindings a later batch of the
// same structure no longer keeps alive), compiles, and caches the plan —
// nil for a batch that optimizes to nothing. Each compiled program is
// validated exactly once: by the optimizer when a rule fired, here
// otherwise; a failure wraps vm.ErrExec. The plan is parametric, executed
// under any batch's constants, only when the optimizer applied nothing:
// every rule inspects constant values, so a fired rewrite bakes the
// batch's constants into the entry. A parametric hit whose vector is not
// the plan's own resolves with a copy of it in Consts; the plan is the
// cached one either way.
func (r *Resolver) Resolve(batch *bytecode.Program, key Key) (Resolution, error) {
	if key.Cached {
		if plan, meta, ok := r.be.LookupPlan(key.FP, key.Consts, r.accept); ok {
			e := meta.(*entry)
			res := Resolution{Plan: plan, Meta: e.host}
			if e.parametric && plan != nil && !slices.EqualFunc(plan.Constants(), key.Consts, bytecode.Constant.Equal) {
				res.Consts = slices.Clone(key.Consts)
			}
			return res, nil
		}
	}
	optimized, report, err := r.pipeline.Optimize(batch)
	if err != nil {
		return Resolution{}, &OptimizeError{err}
	}
	e := &entry{sig: r.sig, parametric: report.TotalApplied() == 0}
	if r.newMeta != nil {
		e.host = r.newMeta(batch, optimized)
	}
	var plan Plan
	if len(optimized.Instrs) > 0 {
		if e.parametric {
			if err := optimized.Validate(); err != nil {
				return Resolution{}, fmt.Errorf("%w: %w", vm.ErrExec, err)
			}
		}
		r.pruneInputs(optimized)
		if plan, err = r.be.Compile(optimized); err != nil {
			return Resolution{}, err
		}
	}
	if key.Cached {
		r.be.InsertPlan(key.FP, key.Consts, e.parametric, plan, e)
	}
	return Resolution{Plan: plan, Meta: e.host, Report: report}, nil
}

// pruneInputs drops the inputs no instruction of p references.
func (r *Resolver) pruneInputs(p *bytecode.Program) {
	r.used = append(r.used[:0], make([]bool, len(p.Regs))...)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		for _, o := range [...]*bytecode.Operand{&in.Out, &in.In1, &in.In2} {
			if o.IsReg() {
				r.used[o.Reg] = true
			}
		}
	}
	kept := p.Inputs[:0]
	for _, id := range p.Inputs {
		if r.used[id] {
			kept = append(kept, id)
		}
	}
	p.Inputs = kept
}
