// Package backend is the middleware seam between the lazy bohrium front
// end and the vector engines that execute its byte-code — the pluggable
// layer the paper's component stack puts between the bridge and the
// hardware-specific engines. A Backend owns one session's execution
// state: it compiles optimized batches into opaque Plans, executes them
// against its register bindings, and fronts the engine's shared
// fingerprint-keyed plan cache with backend-scoped keys (a plan compiled
// by one backend is never served to another — the compiled forms are not
// interchangeable).
//
// Two backends register themselves here: "inprocess", the reference
// fused-sweep vm.Machine, and "outofcore", which streams arrays through
// chunk-sized tiles so a segment's working set stays within a configured
// byte budget (see outofcore.go for the chunking legality rules). Both
// are pinned bit-for-bit equal — values and error text — by the
// differential suite in the root package.
package backend

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

// Plan is a backend's opaque compiled form of one optimized batch. A Plan
// may only be executed by the backend that compiled it; it is immutable
// after Compile, so one Plan may sit in the shared plan cache, on an async
// Executor queue, and mid-execution at the same time.
type Plan interface {
	// Program returns the compiled byte-code. Treat it as read-only.
	Program() *bytecode.Program
}

// Capabilities describes what an execution backend can do, for hosts that
// pick or report backends (cmd/bhrun prints them under -trace).
type Capabilities struct {
	// Chunked marks backends that execute plans over arrays larger than a
	// resident byte budget by streaming tiles, rather than requiring every
	// operand fully resident for the sweep.
	Chunked bool
	// ChunkBytes is the effective per-array tile budget of a chunked
	// backend, in bytes; zero for backends that never chunk.
	ChunkBytes int
}

// Backend is one session's execution seam: compile, execute, bind, read,
// and the plan-cache and stats hooks the front end threads through. A
// Backend has the same concurrency contract as the vm.Machine it wraps —
// one goroutine drives it, except for the sanctioned recorder/executor
// split (Compile/LookupPlan/InsertPlan on the recorder, Execute on an
// Executor goroutine; see Executor).
type Backend interface {
	// Name returns the registry name the backend was opened under.
	Name() string
	// Capabilities reports what this backend can do.
	Capabilities() Capabilities

	// Compile analyzes an optimized program into an executable Plan. It
	// does not validate: p must be valid, as every program a Resolver
	// compiles is — the Resolver validates each exactly once, and reports
	// failures wrapping vm.ErrExec with identical text on every backend.
	Compile(p *bytecode.Program) (Plan, error)
	// Execute runs a plan this backend compiled against the current
	// register bindings. On error the register file may hold partial
	// results; the error reports the failing instruction with the same
	// text on every backend.
	Execute(pl Plan) error

	// Bind presets register r with an existing tensor before execution;
	// the buffer is used directly (no copy).
	Bind(r bytecode.RegID, t tensor.Tensor)
	// Tensor returns the current contents of register r addressed through
	// view v, or false if r has no buffer.
	Tensor(r bytecode.RegID, v tensor.View) (tensor.Tensor, bool)

	// PlanCacheEnabled reports whether LookupPlan/InsertPlan do anything;
	// the Resolver consults it before paying for a fingerprint.
	PlanCacheEnabled() bool
	// LookupPlan finds a cached plan for the batch identified by fp (the
	// backend scopes the key, so two backends sharing one engine never
	// serve each other's plans). Semantics are vm.Machine.LookupPlan's: a
	// nil plan with ok=true means the batch optimizes to nothing. Hosts go
	// through a Resolver rather than calling it directly.
	LookupPlan(fp bytecode.Fingerprint, consts []bytecode.Constant, accept func(meta any) bool) (Plan, any, bool)
	// InsertPlan stores a freshly compiled plan (nil for an
	// optimized-to-empty batch) under the backend-scoped key. A backend
	// whose plans cannot be replayed under different constants may
	// downgrade parametric to false (the out-of-core backend does; the nil
	// plan stays parametric — there is nothing to patch).
	InsertPlan(fp bytecode.Fingerprint, consts []bytecode.Constant, parametric bool, pl Plan, meta any)

	// Stats snapshots the session's cumulative execution counters,
	// including every machine the backend drives internally.
	Stats() vm.Stats
	// ResetStats zeroes the counters (between experiment repetitions).
	ResetStats()
	// CountPipelined adds one background-executed plan to the Pipelined
	// counter — called by Executor, never by hosts.
	CountPipelined()

	// Close releases the session's state (register buffers return to the
	// engine's recycle pool, counters fold into the engine's totals). The
	// backend must not be used afterwards.
	Close()
}

// Config configures a backend session.
type Config struct {
	// VM is the per-session machine configuration every backend shares:
	// sweep fan-out, fusion, validation, plan-cache opt-out.
	VM vm.Config
	// ChunkBytes is the per-array tile budget of chunked backends, in
	// bytes; zero selects DefaultChunkBytes. Backends that never chunk
	// ignore it.
	ChunkBytes int
}

// Factory builds a backend session on a shared engine.
type Factory func(eng *vm.Engine, cfg Config) (Backend, error)

// DefaultName is the backend opened when no name is given.
const DefaultName = "inprocess"

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register adds a backend factory under name. Backends register from
// init; re-registering a name panics (it would silently reroute every
// session).
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("backend: duplicate registration of %q", name))
	}
	registry[name] = f
}

// Names returns the registered backend names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Open creates a session of the named backend ("" selects DefaultName) on
// the shared engine. Sessions of different backends may share one engine:
// they share its worker pool and buffer recycle pool, and the plan cache
// keeps their plans apart through backend-scoped keys.
func Open(name string, eng *vm.Engine, cfg Config) (Backend, error) {
	if name == "" {
		name = DefaultName
	}
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backend: unknown backend %q (have %v)", name, Names())
	}
	return f(eng, cfg)
}

// scopeFingerprint derives the backend-scoped plan-cache key: the shared
// cache stores plans from every backend on the engine, and a fingerprint
// only identifies the batch's structure, not the compiled form — so each
// backend salts its name into the key and can only ever hit its own
// entries.
func scopeFingerprint(name string, fp bytecode.Fingerprint) bytecode.Fingerprint {
	h := sha256.New()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write(fp[:])
	var out bytecode.Fingerprint
	h.Sum(out[:0])
	return out
}
