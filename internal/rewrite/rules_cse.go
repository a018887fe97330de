package rewrite

import (
	"bohrium/internal/bytecode"
)

// CommonSubexprRule replaces a recomputation of an expensive elementwise
// byte-code with a copy of the earlier result: two identical BH_SQRT (or
// POWER, DIVIDE, transcendental) byte-codes over identical operands become
// one computation plus one BH_IDENTITY. Cheap sweeps (cost 1) are left
// alone — a copy costs the same sweep, so nothing is gained.
type CommonSubexprRule struct {
	// MinCost is the minimum op cost worth deduplicating; zero means 4
	// (DIVIDE and up).
	MinCost float64
}

// Name implements Rule.
func (CommonSubexprRule) Name() string { return "common-subexpr" }

// Apply implements Rule.
func (r CommonSubexprRule) Apply(p *bytecode.Program) (int, error) {
	minCost := r.MinCost
	if minCost == 0 {
		minCost = 4
	}
	total := 0
	for i := 0; i < len(p.Instrs); i++ {
		first := &p.Instrs[i]
		info := first.Op.Info()
		if !first.Op.Elementwise() || info.Cost < minCost || !first.Out.IsReg() {
			continue
		}
	scan:
		for j := i + 1; j < len(p.Instrs); j++ {
			second := &p.Instrs[j]
			// The gap (and the candidate itself, for its inputs) must
			// leave the first result and the shared inputs untouched.
			if writesOverlap(second, first.Out.Reg, first.Out.View) && !sameComputation(first, second) {
				break scan
			}
			for _, opnd := range first.Inputs() {
				if opnd.IsReg() && writesOverlap(second, opnd.Reg, opnd.View) {
					break scan
				}
			}
			if !sameComputation(first, second) {
				continue
			}
			if second.Out.Reg == first.Out.Reg && second.Out.View.Equal(first.Out.View) {
				// Bitwise re-store of the same value: drop it entirely.
				p.Instrs[j] = bytecode.Instruction{}
				total++
				break scan
			}
			p.Instrs[j] = bytecode.Instruction{
				Op:  bytecode.OpIdentity,
				Out: second.Out,
				In1: bytecode.Reg(first.Out.Reg, first.Out.View),
			}
			total++
			break scan
		}
	}
	compact(p)
	return total, nil
}

// sameComputation reports whether two instructions perform the identical
// elementwise computation over identical operands (results may land in
// different registers).
func sameComputation(a, b *bytecode.Instruction) bool {
	if a.Op != b.Op || !a.Out.View.Shape.Equal(b.Out.View.Shape) {
		return false
	}
	return operandEqual(a.In1, b.In1) && operandEqual(a.In2, b.In2)
}

func operandEqual(a, b bytecode.Operand) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case bytecode.OperandReg:
		return a.Reg == b.Reg && a.View.Equal(b.View)
	case bytecode.OperandConst:
		return a.Const.Equal(b.Const)
	default:
		return true
	}
}
