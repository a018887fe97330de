package rewrite

import (
	"bohrium/internal/bytecode"
)

// DeadCodeElimRule removes byte-codes whose results are never observed: a
// write to a register that no later byte-code reads, no BH_SYNC
// materializes, and that is not an externally bound input array. Liveness
// is tracked per register (conservatively — partial writes never kill
// liveness), scanning backwards from program end.
type DeadCodeElimRule struct{}

// Name implements Rule.
func (DeadCodeElimRule) Name() string { return "dead-code-elim" }

// Apply implements Rule.
func (DeadCodeElimRule) Apply(p *bytecode.Program) (int, error) {
	total := 0
	for n := dcePass(p); n > 0; n = dcePass(p) {
		total += n
	}
	return total, nil
}

// dcePass removes one round of dead byte-codes. Dead writes become
// tombstones on the backward scan; the forward cleanup then drops the
// BH_FREEs and BH_SYNCs they orphan, and one compaction follows.
func dcePass(p *bytecode.Program) int {
	// One allocation for the pass's two flag vectors.
	flags := make([]bool, 2*len(p.Regs))
	live, defined := flags[:len(p.Regs)], flags[len(p.Regs):]
	for _, r := range p.Inputs {
		live[r] = true
	}
	for _, r := range p.Outputs {
		live[r] = true
	}
	removed := 0
	for i := len(p.Instrs) - 1; i >= 0; i-- {
		in := &p.Instrs[i]
		switch in.Op {
		case bytecode.OpSync:
			live[in.Out.Reg] = true
			continue
		case bytecode.OpFree:
			// The value dies at the FREE: nothing between the last read
			// and the FREE needs it.
			live[in.Out.Reg] = false
			continue
		case bytecode.OpNone:
			continue
		}
		if !live[in.Out.Reg] {
			*in = bytecode.Instruction{}
			removed++
			continue
		}
		for _, o := range [...]*bytecode.Operand{&in.In1, &in.In2} {
			if o.IsReg() {
				live[o.Reg] = true
			}
		}
	}
	// Forward cleanup: dropping a dead write can orphan a later BH_FREE
	// (or BH_SYNC kept alive only formally) of a now never-defined
	// register; drop those too.
	for _, r := range p.Inputs {
		defined[r] = true
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Op {
		case bytecode.OpFree, bytecode.OpSync:
			if !defined[in.Out.Reg] {
				*in = bytecode.Instruction{}
				removed++
			} else if in.Op == bytecode.OpFree {
				defined[in.Out.Reg] = false
			}
		default:
			if in.Out.IsReg() && in.Op != bytecode.OpNone {
				defined[in.Out.Reg] = true
			}
		}
	}
	if removed > 0 {
		compact(p)
	}
	return removed
}
