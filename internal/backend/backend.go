// Package backend is the middleware seam between the lazy bohrium front
// end and the vector engine that executes its byte-code — the layer the
// paper's component stack puts between the bridge and the engine. A
// Backend is the whole session a host opens on a shared vm.Engine: it
// compiles optimized batches into Plans, submits them against its
// register bindings under a constant vector — inline, or through its own
// async pipeline — and fronts the engine's fingerprint-keyed plan cache.
// The Resolver (one plan path for every host) is built on it.
package backend

import (
	"context"
	"fmt"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

// Plan is the compiled form of one optimized batch. It is immutable after
// Compile and holds no constant value, so one Plan may sit in the shared
// plan cache, on an async session's queue, and mid-execution under several
// constant vectors at the same time.
type Plan = *vm.Plan

// Config configures a backend session.
type Config struct {
	// VM is the session's machine configuration: sweep fan-out, fusion,
	// validation, plan-cache opt-out. Its FaultLabel also labels the
	// async pipeline's fault-injection site.
	VM vm.Config
	// Async runs submitted plans on a background goroutine, so the host
	// records batch N+1 while batch N executes; see Submit and Wait.
	Async bool
	// AsyncDepth caps how many submitted plans may queue before Submit
	// blocks (backpressure). Zero selects vm.DefaultAsyncDepth. Ignored
	// unless Async is set.
	AsyncDepth int
}

// DefaultName is the one engine's name, the only one Open accepts besides
// the empty string.
const DefaultName = "inprocess"

// Backend is one session's execution seam: a vm.Machine on a shared
// engine and, when async, the pipeline that executes its plans. One
// goroutine drives it. In async mode a background goroutine owns the
// register state while plans are in flight; the driver keeps plan
// lookup and compilation, which are register-free, and fences with Wait
// before it binds or reads registers.
type Backend struct {
	m    *vm.Machine
	pipe *executor // nil unless Config.Async
}

// New creates a session on the shared engine: it shares the engine's
// worker pool, buffer recycle pool and plan cache with every other
// session.
func New(eng *vm.Engine, cfg Config) *Backend {
	b := &Backend{m: eng.NewMachine(cfg.VM)}
	if cfg.Async {
		b.pipe = newExecutor(b.m, cfg)
	}
	return b
}

// Open is New for callers that name the engine: name must be "" or
// DefaultName.
func Open(name string, eng *vm.Engine, cfg Config) (*Backend, error) {
	if name != "" && name != DefaultName {
		return nil, fmt.Errorf("backend: unknown backend %q (have [%s])", name, DefaultName)
	}
	return New(eng, cfg), nil
}

// Compile analyzes an optimized program into an executable Plan. It does
// not validate: p must be valid, as every program a Resolver compiles is —
// the Resolver validates each exactly once.
func (b *Backend) Compile(p *bytecode.Program) (Plan, error) {
	return b.m.CompileValidated(p), nil
}

// Execute runs a plan inline under its own constants, bypassing the
// async pipeline, so an async session calls it only after Wait. On error
// the register file may hold partial results; the error reports the
// failing instruction.
func (b *Backend) Execute(pl Plan) error { return pl.Execute(b.m, nil) }

// Submit runs a plan against the current register bindings under the
// constant vector consts (nil: the plan's own), as Resolution gives them;
// a nil plan (a batch that optimized to nothing) is a no-op. A
// synchronous session executes it inline and returns its execution
// error. An async session queues it and returns at once; execution
// errors surface at the next Wait, and Err reports them from then on.
// Only an async Submit into a full queue blocks, and ctx bounds that
// wait: when ctx ends first the plan is not queued and the wrapped ctx
// error comes back, leaving the queued work untouched. Neither the plan
// nor consts may be mutated afterwards — plans never are, and
// Resolution.Consts is the host's own copy.
func (b *Backend) Submit(ctx context.Context, pl Plan, consts []bytecode.Constant) error {
	switch {
	case pl == nil:
		return nil
	case b.pipe == nil:
		return pl.Execute(b.m, consts)
	default:
		return b.pipe.submit(ctx, pl, consts)
	}
}

// Wait returns once every submitted plan has executed (or been skipped
// after a failure) with the pipeline's first execution error, or with
// ctx.Err() when ctx ends first. Abandoning a wait cancels nothing:
// queued plans keep executing and a later Wait observes them. A
// synchronous session has nothing in flight, so its Wait returns nil.
func (b *Backend) Wait(ctx context.Context) error {
	if b.pipe == nil {
		return nil
	}
	return b.pipe.wait(ctx)
}

// Err returns the async pipeline's sticky first execution error without
// waiting; nil while none has failed, and always nil for a synchronous
// session. A host checks it before resolving the next batch: later
// batches were recorded against state the failed one never produced.
func (b *Backend) Err() error {
	if b.pipe == nil {
		return nil
	}
	return b.pipe.Err()
}

// Pending reports how many submitted plans have not yet finished
// executing or being skipped (queued plus in flight); 0 for a
// synchronous session. It is a racy snapshot from any goroutine, exact
// right after Wait. The bhd daemon's max-queued-batches quota and drain
// sequencer count through it.
func (b *Backend) Pending() int {
	if b.pipe == nil {
		return 0
	}
	return int(b.pipe.pending.Load())
}

// Async reports whether the session pipelines its plans.
func (b *Backend) Async() bool { return b.pipe != nil }

// Bind presets register r with an existing tensor before execution; the
// buffer is used directly (no copy).
func (b *Backend) Bind(r bytecode.RegID, t tensor.Tensor) { b.m.Bind(r, t) }

// Tensor returns the current contents of register r addressed through
// view v, or false if r has no buffer.
func (b *Backend) Tensor(r bytecode.RegID, v tensor.View) (tensor.Tensor, bool) {
	return b.m.Tensor(r, v)
}

// LookupPlan finds a cached plan for the batch identified by fp, with
// vm.Machine.LookupPlan's semantics: a nil plan with ok=true means the
// batch optimizes to nothing. Hosts go through a Resolver rather than
// calling it directly.
func (b *Backend) LookupPlan(fp bytecode.Fingerprint, consts []bytecode.Constant, accept func(meta any) bool) (Plan, any, bool) {
	return b.m.LookupPlan(fp, consts, accept)
}

// InsertPlan stores a freshly compiled plan (nil for an optimized-to-empty
// batch) in the engine's plan cache; parametric plans are executed under
// any constant vector of their dtypes.
func (b *Backend) InsertPlan(fp bytecode.Fingerprint, consts []bytecode.Constant, parametric bool, pl Plan, meta any) {
	b.m.InsertPlan(fp, consts, parametric, pl, meta)
}

// Stats snapshots the session's cumulative execution counters.
func (b *Backend) Stats() vm.Stats { return b.m.Stats() }

// Close drains the async pipeline — every submitted plan finishes or is
// skipped, and a sticky error stays readable through Err — then releases
// the session's state (register buffers return to the engine's recycle
// pool, counters fold into the engine's totals). The backend must not be
// used afterwards.
func (b *Backend) Close() {
	if b.pipe != nil {
		b.pipe.close()
	}
	b.m.Close()
}
