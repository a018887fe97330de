package vm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// EngineConfig tunes the shared execution substrate. The zero value gives
// a GOMAXPROCS-wide pool, the default plan-cache capacity, and the default
// recycle-pool byte bound.
type EngineConfig struct {
	// Workers is the goroutine pool width. Zero means GOMAXPROCS. Machines
	// cap their own sweep fan-out with their Config.Workers; the engine
	// width only sets how many goroutines serve all of them.
	Workers int
	// PlanCacheSize caps the shared fingerprint-keyed plan cache, in
	// entries across all shards. Zero selects DefaultPlanCacheSize;
	// negative disables the cache for every machine on the engine.
	PlanCacheSize int
	// PoolCapBytes bounds the bytes parked in the shared buffer recycle
	// pool; zero selects the default (256 MiB).
	PoolCapBytes int
	// MemoryHighWatermark is the engine's graceful-degradation budget in
	// bytes; zero means unlimited. When a fresh allocation would push
	// live bytes (buffers held by register files) plus parked
	// recycle-pool bytes past it, the engine sheds its shareable caches
	// first — every compiled plan, every parked buffer — and re-checks;
	// only if live bytes alone still exceed the watermark is the
	// allocation denied with ErrMemoryPressure. Recycle hits never trip
	// it: taking a parked buffer moves bytes between accounts without
	// growing the total.
	MemoryHighWatermark int
}

// Engine is the shared execution substrate behind one or more Machines:
// the worker pool, the sharded plan cache, and the buffer recycle pool.
// The paper's middleware is exactly this shape — one configurable VM layer
// that many front-end sessions plug into — so the shareable state lives
// here and the per-session state (register file, counters) stays on the
// Machine. All Engine methods are safe for concurrent use; Machines from
// different goroutines may execute plans, hit the plan cache, and recycle
// buffers simultaneously.
type Engine struct {
	pool  *workerPool // immutable after NewEngine
	plans *planCache  // immutable after NewEngine
	bufs  *bufferPool // immutable after NewEngine

	// watermark is the MemoryHighWatermark byte budget (0: unlimited),
	// immutable after NewEngine; liveBytes tracks buffers currently held
	// by register files (recycle-pool bytes are accounted separately on
	// the pool); memSheds counts the times pressure forced the caches
	// out.
	watermark int
	liveBytes atomic.Int64
	memSheds  atomic.Int64

	mu       sync.Mutex
	machines map[*Machine]struct{} // guarded by mu
	retired  Stats                 // guarded by mu: folded-in counters of machines closed so far
}

// NewEngine builds a shared engine. Close it after every Machine created
// on it is done; closing a Machine never tears the engine down.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		pool:      newWorkerPool(cfg.Workers),
		bufs:      newBufferPool(cfg.PoolCapBytes),
		machines:  map[*Machine]struct{}{},
		watermark: cfg.MemoryHighWatermark,
	}
	if cfg.PlanCacheSize >= 0 {
		size := cfg.PlanCacheSize
		if size == 0 {
			size = DefaultPlanCacheSize
		}
		e.plans = newPlanCache(size)
	}
	return e
}

// NewMachine creates a session-private Machine on the shared engine. The
// machine's Config governs its own sweep fan-out (Workers), thresholds,
// fusion, and validation; PlanCacheSize < 0 opts this machine out of the
// shared plan cache (lookups miss silently, inserts are dropped) while a
// non-negative value defers to the engine's cache configuration.
//
// The shared plan cache keys on program fingerprints only — it does not
// know which Config a plan was compiled under. A plan executes with the
// fusion decisions of its compiling machine, so machines with different
// Fusion settings sharing one cache will serve each other plans whose
// sweep/fusion counters don't match their own setting (values stay
// bit-identical — fused and unfused execution are differentially
// pinned). Callers mixing compile configs on one engine must segregate
// entries themselves via LookupPlan's accept filter, the way
// backend.Resolver does: its accept filter replays only plans cached
// under an equal backend.Signature.
func (e *Engine) NewMachine(cfg Config) *Machine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.ParallelThreshold <= 0 {
		cfg.ParallelThreshold = DefaultParallelThreshold
	}
	m := &Machine{cfg: cfg, eng: e, useCache: cfg.PlanCacheSize >= 0}
	m.par = parRunner{pool: e.pool, width: cfg.Workers}
	m.regs.stats = &m.stats
	m.regs.shared = e.bufs
	m.regs.eng = e
	m.regs.label = cfg.FaultLabel
	e.mu.Lock()
	e.machines[m] = struct{}{}
	e.mu.Unlock()
	return m
}

// detach removes a closing machine from the registry, folding its counters
// into the engine's retired total so Engine.Stats keeps counting it.
func (e *Engine) detach(m *Machine) {
	e.mu.Lock()
	if _, ok := e.machines[m]; ok {
		delete(e.machines, m)
		e.retired.Accumulate(m.stats.snapshot())
	}
	e.mu.Unlock()
}

// Stats returns the process-wide aggregate over every machine the engine
// has hosted: live sessions contribute a snapshot, closed sessions were
// folded in at detach time. Like Machine.Stats, it may be read while
// executions are in flight.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := e.retired
	for m := range e.machines {
		out.Accumulate(m.stats.snapshot())
	}
	return out
}

// reserveBytes books n bytes of fresh allocation against the engine's
// live-byte account and, when a high watermark is configured, enforces
// the graceful-degradation policy: over the watermark, shed the
// shareable caches (compiled plans, parked recycle buffers) and
// re-check; still over on live bytes alone, undo the booking and deny
// with ErrMemoryPressure. The optimistic add keeps the common path one
// atomic; concurrent allocators racing past the watermark at worst shed
// twice, never under-count.
func (e *Engine) reserveBytes(n int) error {
	if n > 0 {
		e.liveBytes.Add(int64(n))
	}
	if e.watermark <= 0 || n <= 0 {
		return nil
	}
	live := e.liveBytes.Load()
	if live+int64(e.bufs.bytes()) <= int64(e.watermark) {
		return nil
	}
	e.memSheds.Add(1)
	if e.plans != nil {
		e.plans.purge()
	}
	e.bufs.drain()
	if e.liveBytes.Load() <= int64(e.watermark) {
		return nil
	}
	e.liveBytes.Add(int64(-n))
	return fmt.Errorf("%w: a %d-byte allocation would hold %d live bytes over the %d-byte high watermark (plan cache and recycle pool already shed)",
		ErrMemoryPressure, n, live, e.watermark)
}

// adoptBytes moves n bytes from the recycle pool's parked account to
// the live account (a pool take): the total against the watermark is
// unchanged, so no check runs and a recycle hit can never be denied.
func (e *Engine) adoptBytes(n int) { e.liveBytes.Add(int64(n)) }

// releaseBytes credits n bytes back to the live account — a freed
// buffer heading for the recycle pool (whose own account the pool
// keeps) or the GC.
func (e *Engine) releaseBytes(n int) { e.liveBytes.Add(int64(-n)) }

// LiveBytes reports the bytes currently held by register files across
// every machine on the engine (recycle-pool bytes are parked, not live). A racy snapshot, exact
// when the engine is quiesced.
func (e *Engine) LiveBytes() int { return int(e.liveBytes.Load()) }

// MemorySheds reports how many times memory pressure forced the plan
// cache and recycle pool out (whether or not the triggering allocation
// then succeeded).
func (e *Engine) MemorySheds() int { return int(e.memSheds.Load()) }

// PlanCacheLen returns the number of plans cached across all shards.
func (e *Engine) PlanCacheLen() int {
	if e.plans == nil {
		return 0
	}
	return e.plans.len()
}

// Close shuts the shared worker pool down. It waits for in-flight sweep
// submissions (a session mid-parallelFor finishes its chunks first) and is
// idempotent. Machines must not Run/Execute after their engine closes —
// sweeps would degrade to inline execution — so close Contexts/Machines
// first; the order is only a convention, not a safety requirement.
func (e *Engine) Close() {
	e.pool.close() // idempotent: guards its own close-once
}
