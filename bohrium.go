// Package bohrium is a Go reproduction of the Bohrium runtime studied in
// M. O. Larsen, "Algebraic Transformation of Descriptive Vector Byte-code
// Sequences" (Middleware Doctoral Symposium '16): a NumPy-style lazy array
// front-end that records vector byte-code, an algebraic rewrite engine
// that optimizes the byte-code (constant merging, power expansion over
// addition chains, inverse→LU-solve rewriting, fusion-friendly cleanup),
// and a multicore virtual machine that executes it.
//
// The programming model mirrors "import bohrium as np": array operations
// build byte-code instead of computing; a Flush (or any value access)
// optimizes and executes the batch:
//
//	ctx := bohrium.NewContext(nil)
//	defer ctx.Close()
//	a := ctx.Zeros(10)
//	a.AddC(1).AddC(1).AddC(1) // records three BH_ADDs
//	fmt.Println(a.MustData()) // optimizer merges them into one, VM runs it
//
// With Config{Async: true}, Flush splits into a non-blocking Submit and
// a Wait fence, so one batch records while the previous one executes;
// Flush itself remains Submit+Wait and behaves identically.
package bohrium

import (
	"context"
	"errors"
	"fmt"

	"bohrium/internal/backend"
	"bohrium/internal/bytecode"
	"bohrium/internal/rewrite"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

// ErrClosed is returned when using a Context after Close.
var ErrClosed = errors.New("bohrium: context is closed")

// Config tunes a Context. The zero value (or nil) gives the full
// optimizer pipeline and the fused multicore engine.
type Config struct {
	// Optimizer selects the rewrite options; nil means the full default
	// pipeline, an explicitly zeroed Options disables all rewrites.
	Optimizer *rewrite.Options
	// Workers is the VM worker pool width (0: GOMAXPROCS).
	Workers int
	// DisableFusion turns off fused-sweep execution.
	DisableFusion bool
	// PlanCacheSize caps the fingerprint-keyed plan cache, in entries.
	// Flushing a batch whose structure was compiled before skips the
	// whole rewrite pipeline and fusion analysis and re-executes the
	// cached plan with the current buffer bindings. Zero selects
	// vm.DefaultPlanCacheSize; negative disables the cache (every flush
	// pays the full pipeline, as before).
	PlanCacheSize int
	// Async runs flushed batches on a background executor goroutine:
	// Submit seals and enqueues the pending batch without blocking, so
	// batch N+1 records (and fingerprints, and compiles) while batch N
	// executes. Flush is always Submit+Wait, so Flush-only code behaves
	// identically in both modes; the difference surfaces only for callers
	// that Submit explicitly and synchronize later. Execution errors are
	// reported by the next synchronizing call (Wait, Flush, or any data
	// access) and are sticky from then on. See ARCHITECTURE.md,
	// "Async pipelined flush".
	Async bool
}

// Context owns a byte-code recording buffer and the per-session virtual
// machine state that executes flushed batches. It is not safe for
// concurrent use — like a NumPy session, one goroutine drives it;
// parallelism happens inside the VM, in async mode (Config.Async)
// additionally between the driving goroutine and a background executor,
// and between whole sessions when several Contexts share one Runtime
// (each driven by its own goroutine).
type Context struct {
	rt     *Runtime
	ownsRT bool // NewContext-made: Close tears the private runtime down
	// backend executes this session's batches, inline or (Config.Async)
	// through its background pipeline. The front end only ever speaks
	// backend.Backend — submit, wait, bind, read, cache, stats — never
	// the VM's execution machinery.
	backend *backend.Backend
	// plans resolves each sealed batch through the shared plan cache. It
	// never replays a plan compiled under other optimizer options or
	// fusion: a batch fingerprint says nothing about HOW it was compiled.
	plans   *backend.Resolver
	pending *bytecode.Program
	regs    []regState // per-register state, indexed by RegID; state grows it
	marks   []uint8    // markPendingOutputs' per-register scratch, reused
	// freeRegs stacks register ids whose buffers were freed by an earlier
	// flush; new temporaries reuse them (LIFO). Reuse keeps iterative
	// workloads structurally stable: the batch an iteration records names
	// the same registers as the previous iteration's, so its fingerprint
	// repeats and the plan cache hits.
	freeRegs []bytecode.RegID
	lastRep  *rewrite.Report
	closed   bool
	// unregister releases this session's entry in the runtime's session
	// registry (Runtime.Sessions enumeration) on Close.
	unregister func()
}

// regState is the front end's bookkeeping of one register.
type regState struct {
	// gen counts the register's Free events. Array handles snapshot it at
	// creation and panic on use after it advances — the guard that makes
	// register-id recycling safe against stale aliases (Slice/Transpose
	// handles of a freed array).
	gen     uint64
	defined bool // materialized by an earlier flush
	kept    bool // its value must survive flushes
	inFree  bool // on the freeRegs stack
}

// state returns register id's state, growing the table to cover it.
func (c *Context) state(id bytecode.RegID) *regState {
	for int(id) >= len(c.regs) {
		c.regs = append(c.regs, regState{})
	}
	return &c.regs[id]
}

// NewContext creates a session on a lazily created runtime of its own:
// the session gets a private worker pool, plan cache, and recycle pool,
// sized by its Config, exactly as before runtimes existed, and Close
// tears all of it down. Pass nil for defaults. To share one engine across
// many sessions, use Runtime.NewContext instead.
func NewContext(cfg *Config) *Context {
	c := Config{}
	if cfg != nil {
		c = *cfg
	}
	rt := NewRuntime(&RuntimeConfig{Workers: c.Workers, PlanCacheSize: c.PlanCacheSize})
	return newContext(rt, true, c)
}

// newContext wires a session onto a runtime. ownsRT marks the private
// single-session shape, where closing the Context also closes the
// runtime.
func newContext(rt *Runtime, ownsRT bool, c Config) *Context {
	opts := rewrite.DefaultOptions()
	if c.Optimizer != nil {
		opts = *c.Optimizer
	}
	be := backend.New(rt.eng, backend.Config{VM: vm.Config{
		Workers:       c.Workers,
		Fusion:        !c.DisableFusion,
		PlanCacheSize: c.PlanCacheSize,
	}, Async: c.Async})
	ctx := &Context{
		rt:      rt,
		ownsRT:  ownsRT,
		backend: be,
		pending: bytecode.NewProgram(),
	}
	ctx.plans = backend.NewResolver(be,
		backend.Signature{Scope: "context", Options: opts, Fusion: !c.DisableFusion},
		newPlanMeta, ctx.planUsable)
	ctx.unregister = rt.Register("context/" + backend.DefaultName)
	return ctx
}

// Close releases the session. In async mode it first drains the executor
// — every submitted batch finishes (or is skipped after a pipeline error)
// — call Wait first if you need the error. The session's counters fold
// into its runtime's process-wide totals. A NewContext-made session owns
// its private runtime and tears the worker pool down too; a session on a
// shared Runtime only detaches — the pool, the plan cache, and every
// other session keep running. The context must not be used after: public
// entry points report ErrClosed from here on.
func (c *Context) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.backend.Close()
	c.unregister()
	if c.ownsRT {
		c.rt.Close()
	}
}

// LastReport returns the optimizer report of the most recent compiled
// flush. A plan-cache hit skips the optimizer, so it keeps describing
// the last miss; nil before the first.
func (c *Context) LastReport() *rewrite.Report { return c.lastRep }

// Stats exposes cumulative VM counters: sweeps, fused instructions (with
// a per-dtype breakdown in FusedByDType), reductions folded into their
// producer sweep (FusedReductions — sum(x*y) as one pass with no
// materialized temporary; epilogues only, so a reduction that runs as a
// fold nest of its own, as every one does under Fusion: false, is not
// counted), elements, and the buffer lifecycle counters
// (BuffersAllocated, PoolHits, BytesAllocated) that show how much
// allocation the register recycle pool saved — Free'd temporaries are
// handed back to later allocations of the same dtype and length. The
// plan-cache counters (PlanHits, PlanMisses, PlanEvictions) show how
// many flushes skipped the rewrite pipeline and fusion analysis by
// re-executing a cached compilation, and Pipelined counts plans that ran
// on the async executor. The counters are this session's own, even on a
// shared Runtime (Runtime.Stats aggregates across sessions). Stats never
// submits: byte-code recorded since the last Submit is not counted. In
// async mode Stats first waits for the in-flight batches so the counters
// are deterministic; a pipeline error is not reported here — it stays
// sticky for the next synchronizing call. After Close, Stats reports
// ErrClosed.
func (c *Context) Stats() (vm.Stats, error) {
	if c.closed {
		return vm.Stats{}, ErrClosed
	}
	_ = c.backend.Wait(context.Background()) // a pipeline error stays for the next synchronizing call
	return c.backend.Stats(), nil
}

// MustStats is Stats that panics on error, for examples and tools.
func (c *Context) MustStats() vm.Stats {
	st, err := c.Stats()
	if err != nil {
		panic(err)
	}
	return st
}

// PendingProgram returns a copy of the not-yet-flushed byte-code — the
// stream the optimizer will see. Examples and tools use it to show
// "before" listings.
func (c *Context) PendingProgram() *bytecode.Program { return c.pending.Clone() }

// Flush optimizes and executes all recorded byte-code. Arrays read after
// a flush observe the computed values. Flushing an empty buffer is a
// no-op: no clone, no pipeline, no VM call. Flush is exactly
// Submit+Wait, in both synchronous and async mode, so a nil return means
// the batch has executed.
//
// When the plan cache is enabled (default), the flush first fingerprints
// the batch; a structurally identical batch that was compiled before
// skips the clone, the whole rewrite pass stack, and fusion cluster
// analysis, and goes straight to executing the cached plan against the
// current buffer bindings. See ARCHITECTURE.md, "Compile/execute split".
func (c *Context) Flush() error {
	if err := c.Submit(); err != nil {
		return err
	}
	return c.Wait()
}

// Submit seals the pending batch and hands it to the executor without
// waiting for the results. Every Submit resolves exactly the byte-code
// recorded since the previous one: one batch, one plan, never held back
// or combined with the next batch. In synchronous mode (Config.Async
// unset) it optimizes, compiles and executes on the spot — Submit then
// *is* the whole flush, and the subsequent Wait is a no-op. In async mode
// it resolves the batch against the plan cache (compiling on a miss) and
// enqueues the plan on the background executor: recording,
// fingerprinting and compilation of the next batch overlap the execution
// of this one.
// Submit returns recording-side errors (optimize/compile failures, a
// poisoned pipeline) immediately; execution errors surface at the next
// synchronizing call — Wait, Flush, Close, or any data access.
func (c *Context) Submit() error {
	if c.closed {
		return ErrClosed
	}
	// A failed async batch poisons the pipeline: later batches were
	// recorded against state the failure never produced, so they are not
	// executed, and every synchronizing call keeps reporting the first
	// error. The pending byte-code stays recorded, mirroring the
	// synchronous path, which also leaves a failed batch pending.
	if err := c.backend.Err(); err != nil {
		return fmt.Errorf("bohrium: execution failed: %w", err)
	}
	if c.pending.Len() == 0 {
		return nil
	}
	c.markPendingOutputs()
	// Resolving never touches a plan, and a parametric hit under new
	// constants carries its own copy of the vector, so resolving is safe
	// while the executor still runs the previous submission. The pending
	// batch is only read until advanceBatch replaces it.
	res, err := c.plans.Resolve(c.pending, c.plans.Key(c.pending))
	if err != nil {
		if errors.As(err, new(*backend.OptimizeError)) {
			return fmt.Errorf("bohrium: optimize failed: %w", err)
		}
		return fmt.Errorf("bohrium: execution failed: %w", err)
	}
	if res.Report != nil {
		c.lastRep = res.Report
	}
	// The plan runs inline in synchronous mode, enqueued on the background
	// pipeline in async mode, and is immutable either way: it may be
	// executing in other sessions that share the plan cache right now. A
	// batch that optimized to nothing (e.g. temporaries freed before ever
	// being observed) has no plan; only the register bookkeeping advances.
	if err := c.backend.Submit(context.Background(), res.Plan, res.Consts); err != nil {
		return fmt.Errorf("bohrium: execution failed: %w", err)
	}
	c.advanceBatch(res.Meta.(*planMeta))
	return nil
}

// Wait blocks until every submitted batch has executed and returns the
// pipeline's first execution error. The error is sticky: after a failed
// batch, Wait (and every other synchronizing call) keeps returning it,
// and no later batch executes. In synchronous mode Wait is a no-op —
// Submit already ran everything.
func (c *Context) Wait() error {
	if c.closed {
		return ErrClosed
	}
	if err := c.backend.Wait(context.Background()); err != nil {
		return fmt.Errorf("bohrium: execution failed: %w", err)
	}
	return nil
}

// markPendingOutputs declares the externally observable registers of the
// pending batch: everything explicitly kept (creation-function arrays,
// Keep/Sync'd arrays) plus *leaf* temporaries — pure-op results no other
// byte-code consumes, which the caller almost certainly holds. An in-place
// update (r.Sqrt()) reads its own output register; that read does not
// consume the temporary, or the caller's handle would lose it. Consumed
// temporaries stay droppable; that is what allows the equation (2)
// rewrite to delete a discarded inverse. The roles feed both the
// optimizer and the batch fingerprint, so a Keep between two otherwise
// identical flushes changes the cache key (as it must — it changes what
// the optimizer may delete).
func (c *Context) markPendingOutputs() {
	const written, read = 1, 2
	p := c.pending
	p.Outputs = p.Outputs[:0]
	c.marks = append(c.marks[:0], make([]uint8, len(p.Regs))...)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Out.IsReg() && in.WritesReg(in.Out.Reg) {
			c.marks[in.Out.Reg] |= written
		}
		if in.Op == bytecode.OpSync {
			continue // a materialization fence, not a consumer
		}
		for _, o := range [...]*bytecode.Operand{&in.In1, &in.In2} {
			if o.IsReg() && !(in.Out.IsReg() && o.Reg == in.Out.Reg) {
				c.marks[o.Reg] |= read
			}
		}
	}
	for r, m := range c.marks {
		if id := bytecode.RegID(r); c.state(id).kept || m == written {
			p.MarkOutput(id)
		}
	}
}

// planMeta is the front-end bookkeeping stored with each cached plan:
// everything Flush needs to advance the session to the next batch
// without re-deriving it from the optimized program.
type planMeta struct {
	// fate records each register's end-of-batch state, over
	// [0, base+len(extra)): written and live, destroyed by a BH_FREE after
	// its last write, or untouched, keeping its prior defined state.
	fate []regFate
	// freed lists the registers the *batch* freed, whether or not those
	// byte-codes survived optimization: a temporary created and freed
	// unobserved is deleted outright, leaving no fate entry, yet its id
	// must still recycle or the next iteration would mint a fresh one
	// and change the fingerprint.
	freed []bytecode.RegID
	// base is the register count of the batch the plan was compiled
	// from; extra holds declarations the optimizer appended beyond it
	// (expansion scratch). They are part of the plan's program, so a hit
	// is only legal while none of them has been recycled into a live
	// front-end array (see planUsable).
	base  int
	extra []bytecode.RegInfo
}

// regFate is a register's end-of-batch state in planMeta.
type regFate uint8

const (
	fateUntouched regFate = iota
	fateLive
	fateFreed
)

// newPlanMeta derives a fresh plan's bookkeeping from the batch and its
// optimized program (the resolver's newMeta hook).
func newPlanMeta(batch, optimized *bytecode.Program) any {
	pm := &planMeta{base: len(batch.Regs)}
	if len(optimized.Regs) > pm.base {
		pm.extra = append([]bytecode.RegInfo(nil), optimized.Regs[pm.base:]...)
	}
	pm.fate = make([]regFate, pm.base+len(pm.extra))
	for i := range optimized.Instrs {
		in := &optimized.Instrs[i]
		if !in.Out.IsReg() {
			continue
		}
		switch {
		case in.Op == bytecode.OpFree:
			pm.fate[in.Out.Reg] = fateFreed
		case in.WritesReg(in.Out.Reg):
			pm.fate[in.Out.Reg] = fateLive
		}
	}
	for i := range batch.Instrs {
		in := &batch.Instrs[i]
		if in.Op == bytecode.OpFree && in.Out.IsReg() {
			pm.freed = append(pm.freed, in.Out.Reg)
		}
	}
	return pm
}

// planUsable vets a cached plan for execution right now: any scratch
// register the optimizer created for it must still be dead, or the plan
// would clobber a live array that has since been recycled onto that id.
// On a shared Runtime the plan may come from another session whose batch
// carried extra unreferenced register declarations (the fingerprint
// ignores those): a plan whose register file was WIDER than this
// session's is rejected — its scratch placement assumes ids this session
// has not declared — while a narrower or equal base lines up exactly.
// Plans compiled under different semantics (optimizer options, fusion)
// never reach it: the resolver's signature rejects them first.
func (c *Context) planUsable(meta any) bool {
	pm := meta.(*planMeta)
	if pm.base > len(c.pending.Regs) {
		return false
	}
	for i := range pm.extra {
		if st := c.state(bytecode.RegID(pm.base + i)); st.defined || st.kept {
			return false
		}
	}
	return true
}

// advanceBatch starts a fresh batch that inherits the register
// declarations: every register defined so far is an input of the next
// batch. A freed register must not become an input — its buffer has gone
// back to the VM's recycle pool — and, symmetrically, its id goes onto
// the front-end free stack for the next temporary to reuse.
func (c *Context) advanceBatch(pm *planMeta) {
	// The next batch records into the sealed batch's buffers. That is
	// sound because nothing keeps the pending program past Submit:
	// Optimize rewrites a clone, a hit's plan carries its own program,
	// newPlanMeta copies what it keeps, and PendingProgram hands out
	// clones. Whatever is added here must keep it so.
	p := c.pending
	p.Instrs, p.Inputs, p.Outputs = p.Instrs[:0], p.Inputs[:0], p.Outputs[:0]
	for len(p.Regs) < pm.base+len(pm.extra) {
		p.Regs = append(p.Regs, pm.extra[len(p.Regs)-pm.base])
	}
	for r := range p.Regs {
		id := bytecode.RegID(r)
		st, fate := c.state(id), fateUntouched
		if r < len(pm.fate) {
			fate = pm.fate[r]
		}
		if fate != fateUntouched {
			st.defined = fate == fateLive
		}
		if st.defined {
			p.MarkInput(id)
		} else if fate == fateFreed && !st.kept {
			c.recycleReg(id)
		}
	}
	// Registers the batch freed but the optimizer deleted every trace of
	// (unobserved temporaries) are untouched; recycle them too, as long as
	// nothing re-defined or pinned them.
	for _, id := range pm.freed {
		if st := c.state(id); pm.fate[id] == fateUntouched && !st.defined && !st.kept {
			c.recycleReg(id)
		}
	}
}

// recycleReg stacks a dead register id for reuse by a later temporary.
func (c *Context) recycleReg(id bytecode.RegID) {
	if st := c.state(id); !st.inFree {
		st.inFree = true
		c.freeRegs = append(c.freeRegs, id)
	}
}

// MustFlush is Flush that panics on error, for examples.
func (c *Context) MustFlush() {
	if err := c.Flush(); err != nil {
		panic(err)
	}
}

// newArray declares a kept register (creation-function arrays).
func (c *Context) newArray(dt tensor.DType, shape tensor.Shape) *Array {
	a := c.newTempArray(dt, shape)
	c.state(a.reg).kept = true
	return a
}

// newTempArray declares a droppable register (pure-operation results).
// Dead register ids from earlier flushes are reused (with a fresh
// declaration) before new ones are minted, so iterative workloads record
// the same register names every iteration and keep hitting the plan
// cache. Every handle to a freed register fails the generation check in
// Array.check, so reuse never lets a stale alias touch live data.
func (c *Context) newTempArray(dt tensor.DType, shape tensor.Shape) *Array {
	var reg bytecode.RegID
	if n := len(c.freeRegs); n > 0 {
		reg = c.freeRegs[n-1]
		c.freeRegs = c.freeRegs[:n-1]
		c.state(reg).inFree = false
		c.pending.Regs[reg] = bytecode.RegInfo{DType: dt, Len: shape.Size()}
	} else {
		reg = c.pending.NewReg(dt, shape.Size())
	}
	return &Array{
		ctx:  c,
		reg:  reg,
		view: tensor.NewView(shape),
		dt:   dt,
		gen:  c.state(reg).gen,
	}
}

// Zeros returns a float64 array of the given shape filled with 0.
func (c *Context) Zeros(dims ...int) *Array {
	return c.Full(0, dims...)
}

// Ones returns a float64 array of the given shape filled with 1.
func (c *Context) Ones(dims ...int) *Array {
	return c.Full(1, dims...)
}

// Full returns a float64 array of the given shape filled with v. Integral
// fills record integer constants, matching the paper's listing format.
func (c *Context) Full(v float64, dims ...int) *Array {
	a := c.newArray(tensor.Float64, tensor.MustShape(dims...))
	if v == float64(int64(v)) {
		a.emitIdentityConst(bytecode.ConstInt(int64(v)))
	} else {
		a.emitIdentityConst(bytecode.ConstFloat(v))
	}
	return a
}

// ZerosTyped returns an array of the given dtype and shape filled with 0.
func (c *Context) ZerosTyped(dt tensor.DType, dims ...int) *Array {
	a := c.newArray(dt, tensor.MustShape(dims...))
	a.emitIdentityConst(bytecode.ConstOf(dt, 0))
	return a
}

// FullInt returns an int64 array filled with v.
func (c *Context) FullInt(v int64, dims ...int) *Array {
	a := c.newArray(tensor.Int64, tensor.MustShape(dims...))
	a.emitIdentityConst(bytecode.ConstInt(v))
	return a
}

// Arange returns a float64 vector [0, 1, ..., n-1]. n == 0 yields an
// empty array; a negative length is a programming error and panics.
func (c *Context) Arange(n int) *Array {
	if n < 0 {
		panic(fmt.Sprintf("bohrium: Arange length must be non-negative, got %d", n))
	}
	a := c.newArray(tensor.Float64, tensor.MustShape(n))
	c.pending.Emit(bytecode.Instruction{Op: bytecode.OpRange, Out: a.operand()})
	return a
}

// Linspace returns n evenly spaced float64 values over [lo, hi].
// Degenerate lengths follow NumPy: n == 0 yields an empty array, n == 1
// yields [lo]; a negative length is a programming error and panics. No
// arithmetic byte-code is recorded for the empty case.
func (c *Context) Linspace(lo, hi float64, n int) *Array {
	if n < 0 {
		panic(fmt.Sprintf("bohrium: Linspace length must be non-negative, got %d", n))
	}
	a := c.Arange(n)
	if n == 0 {
		return a
	}
	if n > 1 {
		a.MulC((hi - lo) / float64(n-1))
	}
	a.AddC(lo)
	return a
}

// Random returns a float64 array of uniform values in [0, 1) drawn from
// the deterministic counter-based stream for seed.
func (c *Context) Random(seed uint64, dims ...int) *Array {
	a := c.newArray(tensor.Float64, tensor.MustShape(dims...))
	c.pending.Emit(bytecode.Instruction{
		Op:  bytecode.OpRandom,
		Out: a.operand(),
		In1: bytecode.Const(bytecode.ConstInt(int64(seed))),
		In2: bytecode.Const(bytecode.ConstInt(0)),
	})
	return a
}

// FromSlice copies values into a new float64 array of the given shape.
// The data is bound directly to the VM register (no byte-code needed).
func (c *Context) FromSlice(values []float64, dims ...int) (*Array, error) {
	if c.closed {
		return nil, ErrClosed
	}
	shape := tensor.MustShape(dims...)
	tt, err := tensor.FromFloat64s(values, shape)
	if err != nil {
		return nil, err
	}
	// Binding writes the backend's register state, which in-flight async
	// batches own until they finish — fence first.
	if err := c.Wait(); err != nil {
		return nil, err
	}
	a := c.newArray(tensor.Float64, shape)
	c.backend.Bind(a.reg, tt)
	c.pending.MarkInput(a.reg)
	c.state(a.reg).defined = true
	return a, nil
}

// MustFromSlice is FromSlice that panics on error, for examples.
func (c *Context) MustFromSlice(values []float64, dims ...int) *Array {
	a, err := c.FromSlice(values, dims...)
	if err != nil {
		panic(err)
	}
	return a
}
