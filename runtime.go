package bohrium

import (
	"sort"
	"sync"

	"bohrium/internal/vm"
)

// RuntimeConfig tunes the shared engine behind a Runtime. The zero value
// (or nil) gives a GOMAXPROCS-wide worker pool, the default plan-cache
// capacity, and a 256 MiB recycle-pool byte bound.
type RuntimeConfig struct {
	// Workers is the shared worker-pool width (0: GOMAXPROCS). Individual
	// sessions cap their own sweep fan-out with Config.Workers; this knob
	// only sets how many goroutines serve all of them together.
	Workers int
	// PlanCacheSize caps the shared plan cache, in entries across all
	// sessions. Zero selects vm.DefaultPlanCacheSize; negative disables
	// plan caching for every session on this runtime.
	PlanCacheSize int
	// MemoryHighWatermark is the engine's graceful-degradation byte
	// budget (0: unlimited). Over it, the engine sheds its shareable
	// caches — compiled plans and parked recycle buffers — before
	// denying fresh allocations with vm.ErrMemoryPressure, which the
	// bhd daemon maps to a retryable 503.
	MemoryHighWatermark int
}

// Runtime is the shared component stack of the paper's middleware: one
// worker pool, one fingerprint-keyed plan cache, and one buffer recycle
// pool serving many concurrent sessions. Contexts made with
// Runtime.NewContext may be driven from different goroutines at the same
// time — each Context is still single-goroutine, but the runtime
// underneath is fully concurrency-safe — and they feed each other's fast
// paths: a batch one session compiled is a plan-cache hit for every
// other session flushing the same structure, and a buffer one session
// frees is recycled into any session's next matching allocation.
//
// NewContext (the package-level function) instead gives each session a
// private runtime, preserving the one-session-per-engine behavior of
// earlier versions: per-session plan-cache and pool counters start at
// zero, and nothing another session does can turn this session's compile
// into a hit. Hosts that want the sharing create a Runtime (or use
// DefaultRuntime) explicitly.
type Runtime struct {
	eng *vm.Engine // immutable after NewRuntime
	// isDefault marks the process-wide DefaultRuntime, whose Close is a
	// no-op. Set once, before the runtime is ever visible to callers.
	isDefault bool

	// Session registry: every live session attached to this runtime —
	// Contexts and external backend sessions alike (the bhd daemon's
	// tenants) — registers a label here so hosts can enumerate who is
	// sharing the engine. nextSession disambiguates sessions sharing a
	// label.
	mu          sync.Mutex
	nextSession uint64            // guarded by mu
	sessions    map[uint64]string // guarded by mu
}

// NewRuntime builds a shared runtime. Pass nil for defaults. Close it
// after the sessions are done; closing a Context never tears the shared
// runtime down.
func NewRuntime(cfg *RuntimeConfig) *Runtime {
	c := RuntimeConfig{}
	if cfg != nil {
		c = *cfg
	}
	return &Runtime{eng: vm.NewEngine(vm.EngineConfig{
		Workers:             c.Workers,
		PlanCacheSize:       c.PlanCacheSize,
		MemoryHighWatermark: c.MemoryHighWatermark,
	})}
}

// defaultRuntime is the lazily created process-wide runtime behind
// DefaultRuntime.
var (
	defaultRuntimeOnce sync.Once
	defaultRuntime     *Runtime
)

// DefaultRuntime returns the lazily created process-wide shared runtime:
// the convenience engine for servers that want cross-session sharing
// without threading a Runtime value around. It lives for the process,
// like the Go runtime's own worker structures — calling Close on it is
// a no-op.
func DefaultRuntime() *Runtime {
	defaultRuntimeOnce.Do(func() {
		defaultRuntime = NewRuntime(nil)
		defaultRuntime.isDefault = true
	})
	return defaultRuntime
}

// NewContext creates a session on the shared runtime. Pass nil for
// defaults. The Context is single-goroutine like any other, but many of
// them — each driven by its own goroutine — can coexist on one Runtime;
// results are bit-for-bit identical to the same sessions running on
// private runtimes. Config.Workers governs
// this session's sweep fan-out on the shared pool; Config.PlanCacheSize
// only opts the session out of the shared cache when negative (capacity
// is fixed by the RuntimeConfig).
func (r *Runtime) NewContext(cfg *Config) *Context {
	c := Config{}
	if cfg != nil {
		c = *cfg
	}
	return newContext(r, false, c)
}

// Engine exposes the shared vm.Engine so hosts outside the array front
// end can open backend sessions on it directly through backend.New —
// the bhd daemon multiplexes every tenant onto one Runtime this way.
// Such sessions should announce themselves with Register so they show
// up in Sessions alongside the runtime's Contexts.
func (r *Runtime) Engine() *vm.Engine { return r.eng }

// Register records a live session under label and returns its release
// hook. Contexts register themselves; external hosts (internal/server
// sessions) call it when they open a backend on Engine and release on
// close. The release func is idempotent and safe from any goroutine.
func (r *Runtime) Register(label string) (release func()) {
	r.mu.Lock()
	if r.sessions == nil {
		r.sessions = map[uint64]string{}
	}
	id := r.nextSession
	r.nextSession++
	r.sessions[id] = label
	r.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			delete(r.sessions, id)
			r.mu.Unlock()
		})
	}
}

// Sessions enumerates the labels of every live registered session, in
// registration order. It is a snapshot: sessions may come and go the
// moment the lock is released.
func (r *Runtime) Sessions() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]uint64, 0, len(r.sessions))
	for id := range r.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = r.sessions[id]
	}
	return out
}

// SessionCount reports how many registered sessions are live.
func (r *Runtime) SessionCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// Stats returns the process-wide aggregate counters over every session
// the runtime has hosted, live and closed. Per-session numbers stay
// available on each Context's own Stats.
func (r *Runtime) Stats() vm.Stats { return r.eng.Stats() }

// PlanCacheLen returns the number of plans currently in the shared cache.
func (r *Runtime) PlanCacheLen() int { return r.eng.PlanCacheLen() }

// Close drains and stops the shared worker pool. Sessions mid-sweep
// finish their submitted chunks first; close Contexts before their
// Runtime as a matter of hygiene. Close is idempotent (the engine
// guards the close-once itself). Closing the process-wide
// DefaultRuntime is a no-op — it lives for the process, and a stray
// Close from copied teardown code must not degrade every future
// session to inline sweeps.
func (r *Runtime) Close() {
	if r.isDefault {
		return
	}
	r.eng.Close()
}
