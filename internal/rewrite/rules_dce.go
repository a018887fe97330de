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
	for {
		n := dcePass(p)
		total += n
		if n == 0 {
			return total, nil
		}
	}
}

func dcePass(p *bytecode.Program) int {
	// One allocation for the pass's three flag vectors.
	flags := make([]bool, 2*len(p.Regs)+len(p.Instrs))
	live, defined, dead := flags[:len(p.Regs)], flags[len(p.Regs):2*len(p.Regs)], flags[2*len(p.Regs):]
	for _, r := range p.Inputs {
		live[r] = true
	}
	for _, r := range p.Outputs {
		live[r] = true
	}
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
			dead[i] = true
			continue
		}
		for _, opnd := range in.Inputs() {
			if opnd.IsReg() {
				live[opnd.Reg] = true
			}
		}
	}
	removed := 0
	kept := p.Instrs[:0]
	// Forward cleanup alongside the removal: dropping a dead write can
	// orphan a later BH_FREE (or BH_SYNC kept alive only formally) of a
	// now never-defined register; drop those too.
	for _, r := range p.Inputs {
		defined[r] = true
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if dead[i] {
			removed++
			continue
		}
		switch in.Op {
		case bytecode.OpFree, bytecode.OpSync:
			if !defined[in.Out.Reg] {
				removed++
				continue
			}
			if in.Op == bytecode.OpFree {
				defined[in.Out.Reg] = false
			}
		default:
			if in.Out.IsReg() && in.Op != bytecode.OpNone {
				defined[in.Out.Reg] = true
			}
		}
		kept = append(kept, p.Instrs[i])
	}
	p.Instrs = kept
	return removed
}
