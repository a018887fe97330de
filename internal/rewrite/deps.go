// Package rewrite implements the paper's contribution: algebraic
// transformation of byte-code sequences. A pattern matcher with binding
// variables finds rewritable sequences (tolerating interleaved unrelated
// byte-codes via interference analysis), rules rewrite them — constant
// merging (Listings 2→3), power expansion over addition chains (eq. (1),
// Listings 4–5), identity/dead-code cleanup, common-subexpression reuse,
// and the context-aware inverse→LU-solve rewrite of equation (2) — and a
// pass manager drives everything to a fixpoint under a cost model.
package rewrite

import (
	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Dataflow facts about single instructions. Views make this more precise
// than register granularity: two byte-codes touching disjoint halves of a
// register do not interfere, so a merge may commute across them.

// readsOverlap reports whether in reads register reg through a view
// overlapping view. BH_SYNC counts as a read (it materializes the register
// for an external observer); BH_FREE does not read.
func readsOverlap(in *bytecode.Instruction, reg bytecode.RegID, view tensor.View) bool {
	if in.Op == bytecode.OpSync {
		return in.Out.IsReg() && in.Out.Reg == reg && in.Out.View.Overlaps(view)
	}
	return in.In1.IsReg() && in.In1.Reg == reg && in.In1.View.Overlaps(view) ||
		in.In2.IsReg() && in.In2.Reg == reg && in.In2.View.Overlaps(view)
}

// writesOverlap reports whether in writes register reg through a view
// overlapping view. BH_FREE counts as a write (it destroys the value).
func writesOverlap(in *bytecode.Instruction, reg bytecode.RegID, view tensor.View) bool {
	switch in.Op {
	case bytecode.OpSync, bytecode.OpNone:
		return false
	case bytecode.OpFree:
		return in.Out.IsReg() && in.Out.Reg == reg
	default:
		return in.Out.IsReg() && in.Out.Reg == reg && in.Out.View.Overlaps(view)
	}
}

// readsReg reports whether in reads any element of reg.
func readsReg(in *bytecode.Instruction, reg bytecode.RegID) bool {
	if in.Op == bytecode.OpSync {
		return in.Out.IsReg() && in.Out.Reg == reg
	}
	return in.ReadsReg(reg)
}

// DeadAfter reports whether the value held by reg after instruction idx is
// dead: no later instruction reads it (BH_SYNC counts as a read), it is
// not an externally bound input array, or a BH_FREE destroys it before any
// read. Writes do not kill liveness (they may be partial), keeping the
// analysis conservative — "dead" is never wrongly reported, "live" may be.
//
// This is the guard the paper states for equation (2): the inverse→solve
// rewrite is "only faster, if we do not use the A⁻¹ tensor for anything
// else in our computations" — and only *correct* to apply silently if
// nothing else observes A⁻¹ at all.
func DeadAfter(p *bytecode.Program, idx int, reg bytecode.RegID) bool {
	for i := idx + 1; i < len(p.Instrs); i++ {
		in := &p.Instrs[i]
		if in.Op == bytecode.OpFree && in.Out.IsReg() && in.Out.Reg == reg {
			return true
		}
		if readsReg(in, reg) {
			return false
		}
	}
	// Reached program end: registers bound or still held by the
	// front-end remain observable.
	return !p.IsInput(reg) && !p.IsOutput(reg)
}
