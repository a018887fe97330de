// Package backend is the middleware seam between the lazy bohrium front
// end and the vector engine that executes its byte-code — the layer the
// paper's component stack puts between the bridge and the engine. A
// Backend owns one session's execution state on a shared vm.Engine: it
// compiles optimized batches into Plans, executes them against its
// register bindings under a constant vector, and fronts the engine's
// fingerprint-keyed plan cache. The Resolver (one plan path for every
// host) and the Executor (async pipelining) are built on it.
package backend

import (
	"fmt"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

// Plan is the compiled form of one optimized batch. It is immutable after
// Compile and holds no constant value, so one Plan may sit in the shared
// plan cache, on an async Executor queue, and mid-execution under several
// constant vectors at the same time.
type Plan = *vm.Plan

// Config configures a backend session.
type Config struct {
	// VM is the session's machine configuration: sweep fan-out, fusion,
	// validation, plan-cache opt-out.
	VM vm.Config
}

// DefaultName is the one engine's name, the only one Open accepts besides
// the empty string.
const DefaultName = "inprocess"

// Backend is one session's execution seam: a vm.Machine on a shared
// engine. It has the machine's concurrency contract — one goroutine
// drives it, except for the sanctioned recorder/executor split
// (Compile/LookupPlan/InsertPlan on the recorder, Execute on an Executor
// goroutine; see Executor).
type Backend struct {
	m *vm.Machine
}

// New creates a session on the shared engine: it shares the engine's
// worker pool, buffer recycle pool and plan cache with every other
// session.
func New(eng *vm.Engine, cfg Config) *Backend {
	return &Backend{m: eng.NewMachine(cfg.VM)}
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

// Execute runs a plan under its own constants: ExecuteWith(pl, nil).
func (b *Backend) Execute(pl Plan) error { return b.ExecuteWith(pl, nil) }

// ExecuteWith runs a plan against the current register bindings under the
// constant vector consts (nil: the plan's own), as Resolution.Consts
// gives it. On error the register file may hold partial results; the
// error reports the failing instruction.
func (b *Backend) ExecuteWith(pl Plan, consts []bytecode.Constant) error {
	return pl.Execute(b.m, consts)
}

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

// Close releases the session's state (register buffers return to the
// engine's recycle pool, counters fold into the engine's totals). The
// backend must not be used afterwards.
func (b *Backend) Close() { b.m.Close() }
