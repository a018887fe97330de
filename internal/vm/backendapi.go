package vm

import (
	"fmt"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// This file is the machine's surface for execution backends built on top
// of it (internal/backend): the plan-cache value interface and the
// fine-grained hooks the out-of-core chunked backend composes — executing
// single barrier instructions with the exact error wrapping of
// Plan.Execute, materializing and releasing register buffers, and staging
// scratch tiles through the engine's recycle pool. The in-process backend
// only needs Compile/Execute/Bind/Tensor, which live with the Machine.

// CachedPlan is what the fingerprint-keyed plan cache stores: any
// backend's compiled form of a batch. The cache itself never executes a
// plan — it only needs Rebind, the immutable constant-patching step a
// parametric hit under a different constant vector pays. Implementations
// must never mutate the receiver: the cached plan may be executing
// concurrently on this session's async executor or in another session
// sharing the engine. A backend whose plans cannot be replayed under
// different constants simply inserts them as non-parametric, and Rebind is
// never called.
type CachedPlan interface {
	Rebind(vals []bytecode.Constant) (CachedPlan, error)
}

// Rebind implements CachedPlan for the in-process plan: WithConstants
// semantics — a patched clone, or the receiver itself when vals already
// match.
func (pl *Plan) Rebind(vals []bytecode.Constant) (CachedPlan, error) {
	np, err := pl.WithConstants(vals)
	if err != nil {
		return nil, err
	}
	return np, nil
}

// ExecOne executes the single instruction p.Instrs[idx] against m's
// current register bindings, exactly as Plan.Execute runs that
// instruction when it forms its own single-instruction cluster — an
// elementwise sweep on a loop nest (compiled here, per call: there is no
// plan to keep it), anything else through the interpreter — and with the
// same error wrapping, fusion on or off. The out-of-core backend executes
// barrier instructions — reductions, scans, extensions, generators with
// global element indices, system byte-codes, strided or partial sweeps —
// through this, so a failing BH_SOLVE reports the identical error text on
// every backend.
func (m *Machine) ExecOne(p *bytecode.Program, idx int) error {
	if idx < 0 || idx >= len(p.Instrs) {
		return fmt.Errorf("%w: instruction index %d out of range [0,%d)", ErrExec, idx, len(p.Instrs))
	}
	m.regs.grow(len(p.Regs))
	var ns *nest
	if shape, kind := sweepAt(p, idx); kind != sweepNone {
		ns = compileNest(p, idx, idx+1, shape)
	}
	var err error
	if ns != nil {
		err = m.runNest(p, ns)
	} else {
		err = m.interpret(p, idx, idx+1)
	}
	if err == nil {
		return nil
	}
	if m.cfg.Fusion {
		return fmt.Errorf("%w: cluster [%d,%d): %w", ErrExec, idx, idx+1, err)
	}
	return fmt.Errorf("%w: %w", ErrExec, err)
}

// Bound reports whether register r currently has a buffer (bound from
// outside or materialized by execution and not yet freed).
func (m *Machine) Bound(r bytecode.RegID) bool { return m.regs.get(r) != nil }

// Materialize returns the buffer for register r, allocating it from the
// declaration in p if the register has no buffer yet — from the shared
// recycle pool when a matching buffer is parked there. It is the exported
// form of the register file's lazy materialization, for backends that
// write register buffers outside Plan.Execute (the out-of-core backend
// materializes a segment's full-size outputs before streaming chunk
// results into them).
func (m *Machine) Materialize(p *bytecode.Program, r bytecode.RegID) (tensor.Buffer, error) {
	return m.regs.ensure(p, r)
}

// AcquireBuffer takes a zeroed buffer of the given dtype and length, from
// the engine's shared recycle pool when possible (PoolHits) and freshly
// allocated otherwise (BuffersAllocated/BytesAllocated) — the same
// lifecycle register materialization uses, exposed for backend staging
// buffers that are not registers. Pair with ReleaseBuffer.
func (m *Machine) AcquireBuffer(dt tensor.DType, n int) (tensor.Buffer, error) {
	return m.regs.acquire(dt, n)
}

// ReleaseBuffer parks a buffer obtained from AcquireBuffer back in the
// engine's shared recycle pool (or lets the GC have it when the pool is
// full). The buffer must not be used afterwards.
func (m *Machine) ReleaseBuffer(buf tensor.Buffer) {
	if buf != nil {
		m.eng.releaseBytes(buf.Len() * buf.DType().Size())
		m.eng.bufs.put(buf)
	}
}

// ReleaseRegisters frees every register in the machine's file: buffers
// the machine allocated return to the shared recycle pool, externally
// bound buffers are only unlinked. The out-of-core backend's chunk
// machine calls this between segments (and between full-chunk and
// tail-chunk phases) so staging tiles recirculate instead of pinning one
// buffer per register per segment.
func (m *Machine) ReleaseRegisters() {
	for r := range m.regs.bufs {
		m.regs.free(bytecode.RegID(r))
	}
}

// CountPipelined adds one plan execution to the Pipelined counter — the
// stats hook for executors that run backend plans on a background
// goroutine.
func (m *Machine) CountPipelined() { m.stats.pipelined.Add(1) }

// CountChunks adds n streamed tiles to the Chunks counter — the stats
// hook for chunked backends.
func (m *Machine) CountChunks(n int) { m.stats.chunks.Add(int64(n)) }
