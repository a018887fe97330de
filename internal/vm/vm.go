// Package vm executes Bohrium byte-code programs. It is this
// reproduction's substitute for the paper's OpenCL/JIT backend: byte-codes
// are grouped into fusible clusters, each cluster compiles to one sweep
// over its iteration space, and sweeps are split across a goroutine worker
// pool. The property the substitution preserves is the one the paper's
// transformations exploit — every byte-code costs a full pass over its
// operand memory, so fewer/cheaper byte-codes means proportionally less
// time, exactly as on a GPU command queue.
package vm

import (
	"errors"
	"fmt"
	"sync/atomic"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// ErrExec wraps runtime execution failures.
var ErrExec = errors.New("vm: execution error")

// ErrMemoryPressure marks allocations the engine denied because its
// high-watermark byte budget is exhausted even after shedding the plan
// cache and the recycle pool (EngineConfig.MemoryHighWatermark). It is
// graceful degradation, not corruption: the failing batch's registers
// may hold partial results, but the session — and every other session
// on the engine — keeps working, and retrying after other sessions free
// memory can succeed. Execution paths wrap it with %w, so hosts map it
// with errors.Is (the bhd daemon turns it into a retryable 503).
var ErrMemoryPressure = errors.New("vm: memory pressure")

// Config selects the execution strategy.
type Config struct {
	// Workers is the goroutine pool width for data-parallel sweeps.
	// Zero means GOMAXPROCS.
	Workers int
	// Fusion enables clustering contiguous elementwise byte-codes into
	// single sweeps (the JIT-kernel substitute). Off, every byte-code is
	// its own sweep.
	Fusion bool
	// ParallelThreshold is the minimum element count before a sweep is
	// split across workers; tiny sweeps run inline. It also gates the
	// parallel reduction/scan strategies: a reduction or scan whose total
	// input is below the threshold always runs serially; above it, the
	// engine splits the output sweep (many outputs) or chunks the axis
	// (few outputs over an axis long enough to cut into chunks). Zero
	// picks a default.
	ParallelThreshold int
	// PlanCacheSize tunes the machine's use of the fingerprint-keyed plan
	// cache. Negative opts the machine out entirely (LookupPlan always
	// misses without counting, inserts are dropped). For a machine made
	// by New — which builds its own private Engine — a positive value
	// caps that engine's cache in entries and zero selects
	// DefaultPlanCacheSize; for a machine on a shared Engine
	// (Engine.NewMachine) capacity is fixed by EngineConfig.PlanCacheSize
	// and only this field's sign is consulted.
	PlanCacheSize int
	// FaultLabel tags this machine's faultinject sites (allocation
	// failure, slow or panicking execution) so a chaos harness can
	// target one session among many — the bhd daemon labels every
	// session's machine with its tenant. Empty machines only match
	// label-less faults. Inert unless a fault is armed.
	FaultLabel string
}

// DefaultParallelThreshold is the sweep size below which goroutine fan-out
// costs more than it buys.
const DefaultParallelThreshold = 1 << 15

// DefaultAsyncDepth is the submit-queue depth of an async backend whose
// config leaves AsyncDepth zero: how many compiled batches may sit between the
// recording goroutine and the executing one before Submit applies
// backpressure.
const DefaultAsyncDepth = 8

// Machine is one session's execution state on an Engine: the register
// file, the session counters, and the session's view of the shared
// substrate (its sweep fan-out width, its opt-in to the shared plan
// cache). A Machine may run many programs; registers persist between runs
// so a lazy front-end can flush incrementally. Machine is not safe for
// general concurrent use — one goroutine drives it, parallelism happens
// inside Run — but it supports exactly one sanctioned split: a recording
// goroutine that compiles and looks up plans while an async backend's
// pipeline goroutine executes them (backend.Backend states the ownership
// rules). Counters are atomic so both sides may count. Different
// Machines on one shared Engine may run fully concurrently: everything
// they share (worker pool, plan cache, buffer pool) is concurrency-safe,
// and everything per-session lives here.
type Machine struct {
	cfg      Config
	eng      *Engine
	par      parRunner
	useCache bool // session opted into the engine's plan cache
	private  bool // Close also closes the engine (vm.New compatibility)
	regs     registerFile
	frame    nestFrame    // runNest's reusable scratch; only the executing goroutine touches it
	arena    compileArena // CompileValidated's reusable scratch; only the compiling goroutine touches it
	stats    atomicStats
}

// DTypeCounts holds one counter per dtype, indexed by tensor.DType. It is
// a fixed-size array (not a map) so Stats stays a plain copyable value.
type DTypeCounts [8]int

func (c *DTypeCounts) add(dt tensor.DType, n int) {
	if dt > 0 && int(dt) < len(c) {
		c[dt] += n
	}
}

// Get returns the counter for dt.
func (c DTypeCounts) Get(dt tensor.DType) int {
	if dt > 0 && int(dt) < len(c) {
		return c[dt]
	}
	return 0
}

// String formats the non-zero counters as "float64:3 int32:1" in dtype
// declaration order, or "-" when all are zero.
func (c DTypeCounts) String() string {
	out := ""
	for dt := tensor.DType(1); int(dt) < len(c); dt++ {
		if c[dt] == 0 || !dt.Valid() {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s:%d", dt, c[dt])
	}
	if out == "" {
		return "-"
	}
	return out
}

// Stats counts execution work, for experiment tables and fusion ablations.
type Stats struct {
	// Instructions executed, excluding system byte-codes.
	Instructions int
	// Sweeps launched (fused clusters count once — the "kernel launches"
	// a GPU backend would issue).
	Sweeps int
	// FusedInstructions is how many instructions ran inside multi-op
	// sweeps.
	FusedInstructions int
	// ChainedInstructions is how many of those ran inside chain steps:
	// runs t = t ⊕ x folded per element in registers, in one pass.
	ChainedInstructions int
	// FusedReductions counts reductions executed as the epilogue of a
	// fused producer sweep: the elementwise chain feeding the reduction
	// ran in one nest whose last step folds its runs, and producer
	// temporaries that were dead afterwards were never materialized. It
	// counts epilogues only: a reduction that runs as a fold nest of its
	// own (every one with fusion off) is not a fused reduction.
	FusedReductions int
	// FusedByDType counts instructions executed inside fused sweeps,
	// keyed by each instruction's output dtype.
	FusedByDType DTypeCounts
	// Elements processed, summed over instructions.
	Elements int
	// BuffersAllocated counts fresh register-buffer allocations.
	BuffersAllocated int
	// PoolHits counts register materializations served by recycling a
	// previously freed buffer instead of allocating.
	PoolHits int
	// BytesAllocated totals the bytes of fresh allocations (pool hits add
	// nothing — that is the point).
	BytesAllocated int
	// PlanHits counts batches served from the fingerprint-keyed plan
	// cache: no rewrite passes, no cluster re-analysis — straight to
	// Plan.Execute with rebound buffers.
	PlanHits int
	// PlanMisses counts cache lookups that had to compile a fresh plan.
	PlanMisses int
	// PlanEvictions counts plans the LRU dropped when over capacity.
	PlanEvictions int
	// Pipelined counts plans executed on an async backend's pipeline
	// goroutine (submit/wait pipelining) rather than on the caller.
	Pipelined int
}

// Accumulate adds every counter of o into s — how Engine.Stats (and any
// host summing per-session numbers) folds snapshots into one total.
func (s *Stats) Accumulate(o Stats) {
	s.Instructions += o.Instructions
	s.Sweeps += o.Sweeps
	s.FusedInstructions += o.FusedInstructions
	s.ChainedInstructions += o.ChainedInstructions
	s.FusedReductions += o.FusedReductions
	for dt := range s.FusedByDType {
		s.FusedByDType[dt] += o.FusedByDType[dt]
	}
	s.Elements += o.Elements
	s.BuffersAllocated += o.BuffersAllocated
	s.PoolHits += o.PoolHits
	s.BytesAllocated += o.BytesAllocated
	s.PlanHits += o.PlanHits
	s.PlanMisses += o.PlanMisses
	s.PlanEvictions += o.PlanEvictions
	s.Pipelined += o.Pipelined
}

// atomicStats is the Machine's internal counter set. The counters are
// atomics because the pipelined flush mode splits the machine across two
// goroutines — the recorder counts plan-cache traffic while the pipeline
// counts sweeps and buffer work — and Stats() may be read while both are
// active. snapshot assembles the exported value type.
type atomicStats struct {
	instructions        atomic.Int64
	sweeps              atomic.Int64
	fusedInstructions   atomic.Int64
	chainedInstructions atomic.Int64
	fusedReductions     atomic.Int64
	fusedByDType        [8]atomic.Int64
	elements            atomic.Int64
	buffersAllocated    atomic.Int64
	poolHits            atomic.Int64
	bytesAllocated      atomic.Int64
	planHits            atomic.Int64
	planMisses          atomic.Int64
	planEvictions       atomic.Int64
	pipelined           atomic.Int64
}

func (s *atomicStats) addDType(dt tensor.DType, n int) {
	if dt > 0 && int(dt) < len(s.fusedByDType) {
		s.fusedByDType[dt].Add(int64(n))
	}
}

func (s *atomicStats) snapshot() Stats {
	out := Stats{
		Instructions:        int(s.instructions.Load()),
		Sweeps:              int(s.sweeps.Load()),
		FusedInstructions:   int(s.fusedInstructions.Load()),
		ChainedInstructions: int(s.chainedInstructions.Load()),
		FusedReductions:     int(s.fusedReductions.Load()),
		Elements:            int(s.elements.Load()),
		BuffersAllocated:    int(s.buffersAllocated.Load()),
		PoolHits:            int(s.poolHits.Load()),
		BytesAllocated:      int(s.bytesAllocated.Load()),
		PlanHits:            int(s.planHits.Load()),
		PlanMisses:          int(s.planMisses.Load()),
		PlanEvictions:       int(s.planEvictions.Load()),
		Pipelined:           int(s.pipelined.Load()),
	}
	for dt := range s.fusedByDType {
		out.FusedByDType[dt] = int(s.fusedByDType[dt].Load())
	}
	return out
}

// New returns a Machine on a private Engine built from the same
// configuration — the single-session shape every pre-Runtime caller used.
// Closing the machine closes its engine too. Multi-session hosts create
// one Engine (or a bohrium.Runtime) and hang machines off it instead.
func New(cfg Config) *Machine {
	eng := NewEngine(EngineConfig{Workers: cfg.Workers, PlanCacheSize: cfg.PlanCacheSize})
	m := eng.NewMachine(cfg)
	m.private = true
	return m
}

// Stats returns a snapshot of the cumulative execution counters. It is
// safe to call while an async backend runs plans in the background; for
// deterministic numbers, Wait on the backend first.
func (m *Machine) Stats() Stats { return m.stats.snapshot() }

// CountPipelined adds one plan execution to the Pipelined counter — the
// stats hook of an async backend's pipeline goroutine.
func (m *Machine) CountPipelined() { m.stats.pipelined.Add(1) }

// Bind presets register r with an existing tensor before Run — the
// front-end binds arrays listed in the program's Inputs this way. The
// tensor's buffer is used directly (no copy), so results written to r are
// visible through t.
func (m *Machine) Bind(r bytecode.RegID, t tensor.Tensor) {
	m.regs.bind(r, t.Buf)
}

// Tensor returns the current contents of register r addressed through
// view v, or false if r has no buffer (never written or freed).
func (m *Machine) Tensor(r bytecode.RegID, v tensor.View) (tensor.Tensor, bool) {
	buf := m.regs.get(r)
	if buf == nil {
		return tensor.Tensor{}, false
	}
	return tensor.Tensor{Buf: buf, View: v}, true
}

// Run compiles and executes the program in one step — Compile then
// Plan.Execute. Callers that run a structurally identical program many
// times should Compile once and Execute the plan per run (or go through
// the plan cache, LookupPlan/InsertPlan). On error the register file may
// hold partial results; the error reports the failing instruction.
func (m *Machine) Run(p *bytecode.Program) error {
	pl, err := m.Compile(p)
	if err != nil {
		return err
	}
	return pl.Execute(m, nil)
}

// Engine returns the (possibly shared) engine this machine runs on.
func (m *Machine) Engine() *Engine { return m.eng }

// Close detaches the machine from its engine: the session's registers
// are released (owned buffers recycle into the shared pool, the
// engine's live-byte account is credited), the session's counters fold
// into the engine's process-wide totals, and the machine must not be
// used afterwards. A machine made by New owns its engine and closes it
// too; a machine made by Engine.NewMachine never touches the shared
// pool — other sessions keep running.
func (m *Machine) Close() {
	for r := range m.regs.bufs {
		m.regs.free(bytecode.RegID(r))
	}
	m.eng.detach(m)
	if m.private {
		m.eng.Close()
	}
}
