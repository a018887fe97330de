package rewrite

import (
	"bohrium/internal/bytecode"
)

// SolveRewriteRule implements the paper's equation (2): the sequence
//
//	BH_INVERSE aI ← aA
//	BH_MATMUL  aX ← aI, aB
//
// becomes BH_SOLVE aX ← aA, aB (an LU-factorized solve), provided the
// inverse is used for nothing else — "this is of course only faster, if we
// do not use the A⁻¹ tensor for anything else in our computations". The
// liveness gate (design decision D3) enforces exactly that: the rewrite
// fires only when aI is dead after the matmul.
type SolveRewriteRule struct {
	// DisableLivenessCheck applies the rewrite even when the inverse
	// register stays live. Only the D3 ablation test uses it — the
	// pipeline validator will reject the resulting program when the
	// inverse's consumers lose their defining byte-code.
	DisableLivenessCheck bool
}

// Name implements Rule.
func (SolveRewriteRule) Name() string { return "inverse-to-solve" }

var solvePattern = compile(SeqPattern{
	Pats: []InstrPattern{
		{
			Ops: []bytecode.Opcode{bytecode.OpInverse},
			Out: RegOp("inv", "vinv"), In1: RegOp("A", "vA"), In2: Absent,
		},
		{
			Ops: []bytecode.Opcode{bytecode.OpMatmul},
			Out: RegOp("x", "vx"), In1: RegOp("inv", "vinv"), In2: RegOp("B", "vB"),
		},
	},
	Protect: []Protected{
		// Nothing may read or write the inverse in the gap (a reader
		// would observe a value the rewrite deletes).
		{Reg: "inv", View: "vinv"},
		// A must hold the same value at the matmul as at the inverse;
		// gap reads of A are harmless.
		{Reg: "A", View: "vA", WritesOnly: true},
	},
})

// Apply implements Rule.
func (r SolveRewriteRule) Apply(p *bytecode.Program) (int, error) {
	total := 0
	for from := 0; ; {
		m, ok := solvePattern.FindFrom(p, from)
		if !ok {
			compact(p)
			return total, nil
		}
		i, j := m.Positions[0], m.Positions[1]
		invReg := m.Reg("inv")

		if !r.DisableLivenessCheck && !DeadAfter(p, j, invReg) {
			// A⁻¹ is reused later; keep the explicit inverse.
			from = i + 1
			continue
		}

		matmul := &p.Instrs[j]
		matmul.Op, matmul.In1 = bytecode.OpSolve, p.Instrs[i].In1 // X = solve(A, B)
		p.Instrs[i] = bytecode.Instruction{}
		total++
		// Deleting the inverse's only definition would orphan a later
		// BH_FREE of that register; drop the first such FREE before any
		// redefinition.
		for k := j; k < len(p.Instrs); k++ {
			in := &p.Instrs[k]
			if in.WritesReg(invReg) {
				break
			}
			if in.Op == bytecode.OpFree && in.Out.IsReg() && in.Out.Reg == invReg {
				p.Instrs[k] = bytecode.Instruction{}
				break
			}
		}
		from = 0
	}
}
