package rewrite

import (
	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// Constant-folding rules: the paper's Listing 2→3 transformation family.
// All of them assume real-number algebra; merged float operations may
// round differently from the original sequence (the same license the
// paper's merge of float additions takes). Integer merges are exact.

// CanonicalizeRule normalizes commutative binary byte-codes so that a
// constant operand sits in the second slot, letting every later rule match
// one shape instead of two.
type CanonicalizeRule struct{}

// Name implements Rule.
func (CanonicalizeRule) Name() string { return "canonicalize" }

// Apply implements Rule.
func (CanonicalizeRule) Apply(p *bytecode.Program) (int, error) {
	n := 0
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if info := in.Op.Info(); info.Commutative && info.Arity == 2 && in.In1.IsConst() && in.In2.IsReg() {
			in.In1, in.In2 = in.In2, in.In1
			n++
		}
	}
	return n, nil
}

// AddMergeRule merges consecutive constant additions/subtractions into one
// byte-code: "BH_ADD a0 a0 1" three times becomes "BH_ADD a0 a0 3"
// (Listings 2→3). Interleaved unrelated byte-codes are tolerated as long
// as they do not touch the target view.
type AddMergeRule struct {
	// AdjacentOnly restricts matching to strictly consecutive byte-codes
	// (the paper's literal listings) — the D1 ablation knob that shows
	// what interference-aware gap tolerance buys on realistic streams.
	AdjacentOnly bool
}

// Name implements Rule.
func (AddMergeRule) Name() string { return "add-merge" }

var addMergePattern = constPairPattern(bytecode.OpAdd, bytecode.OpSubtract)

// constPairPattern matches two in-place updates "r v = r v op c" with ops
// from ops, the gap between them leaving (r, v) alone.
func constPairPattern(ops ...bytecode.Opcode) SeqPattern {
	step := func(c string) InstrPattern {
		return InstrPattern{Ops: ops, Out: RegOp("r", "v"), In1: RegOp("r", "v"), In2: ConstOp(c)}
	}
	return compile(SeqPattern{
		Pats:    []InstrPattern{step("c1"), step("c2")},
		Protect: []Protected{{Reg: "r", View: "v"}},
	})
}

// Apply implements Rule.
func (r AddMergeRule) Apply(p *bytecode.Program) (int, error) {
	pattern := addMergePattern
	pattern.NoGaps = r.AdjacentOnly
	return foldRuns(p, &pattern, mergeAdd), nil
}

// mergeAdd folds second's constant into first's, exactly when both are
// integral, in float64 otherwise.
func mergeAdd(_ *bytecode.Program, first, second *bytecode.Instruction) bool {
	c1, c2 := first.In2.Const, second.In2.Const
	s1, s2 := signOf(first.Op), signOf(second.Op)
	if isExactInt(c1) && isExactInt(c2) {
		first.In2 = bytecode.Const(bytecode.ConstInt(s1*c1.Int() + s2*c2.Int()))
	} else {
		first.In2 = bytecode.Const(bytecode.ConstFloat(float64(s1)*c1.Float() + float64(s2)*c2.Float()))
	}
	first.Op = bytecode.OpAdd
	return true
}

// foldRuns applies a two-instruction merge pattern as run merges, left to
// right: at each match (i, j) it folds j into instruction i, then scans on
// from j under the same binding and folds each further partner into i,
// until fold declines or the scan stops. Each fold counts one application;
// folded partners become tombstones, compacted once at the end.
func foldRuns(p *bytecode.Program, sp *SeqPattern, fold func(p *bytecode.Program, first, second *bytecode.Instruction) bool) int {
	total := 0
	for from := 0; ; {
		m, ok := sp.FindFrom(p, from)
		if !ok {
			break
		}
		i, j := m.Positions[0], m.Positions[1]
		for ok && fold(p, &p.Instrs[i], &p.Instrs[j]) {
			p.Instrs[j] = bytecode.Instruction{}
			total++
			j, ok = sp.nextPartner(p, &m, j)
		}
		from = i + 1
	}
	if total > 0 {
		compact(p)
	}
	return total
}

// MulMergeRule merges consecutive constant multiplications/divisions:
// x·c1·c2 → x·(c1c2), x/c1/c2 → x/(c1c2), and the mixed forms in float
// arithmetic. Integer registers only merge the cases where truncating
// semantics compose exactly (MUL·MUL always; DIV·DIV for positive
// divisors).
type MulMergeRule struct{}

// Name implements Rule.
func (MulMergeRule) Name() string { return "mul-merge" }

var mulMergePattern = constPairPattern(bytecode.OpMultiply, bytecode.OpDivide)

// Apply implements Rule.
func (MulMergeRule) Apply(p *bytecode.Program) (int, error) {
	return foldRuns(p, &mulMergePattern, mergeMul), nil
}

// mergeMul folds second's constant into first's, declining the forms
// that do not compose.
func mergeMul(p *bytecode.Program, first, second *bytecode.Instruction) bool {
	c1, c2 := first.In2.Const, second.In2.Const
	ri, _ := p.Reg(first.Out.Reg)
	op1, op2, intReg := first.Op, second.Op, !ri.DType.IsFloat()
	switch {
	case intReg && op1 == op2 && isExactInt(c1) && isExactInt(c2) &&
		(op1 == bytecode.OpMultiply || c1.Int() > 0 && c2.Int() > 0):
		first.In2 = bytecode.Const(bytecode.ConstInt(c1.Int() * c2.Int()))
	case intReg: // other integer forms do not compose under truncation
		return false
	case op1 == op2: // x·c1·c2 or x/c1/c2
		first.In2 = bytecode.Const(bytecode.ConstFloat(c1.Float() * c2.Float()))
	case op1 == bytecode.OpMultiply && op2 == bytecode.OpDivide:
		if c2.Float() == 0 {
			return false
		}
		first.In2 = bytecode.Const(bytecode.ConstFloat(c1.Float() / c2.Float()))
	default: // DIVIDE then MULTIPLY
		if c1.Float() == 0 {
			return false
		}
		first.Op = bytecode.OpMultiply
		first.In2 = bytecode.Const(bytecode.ConstFloat(c2.Float() / c1.Float()))
	}
	return true
}

// IdentityFoldRule folds a constant initialization followed by a constant
// arithmetic byte-code into one initialization: IDENTITY 0 then ADD 3
// becomes IDENTITY 3. Together with AddMergeRule this collapses Listing 2
// all the way to two byte-codes.
type IdentityFoldRule struct{}

// Name implements Rule.
func (IdentityFoldRule) Name() string { return "identity-fold" }

var identityFoldPattern = compile(SeqPattern{
	Pats: []InstrPattern{
		{
			Ops: []bytecode.Opcode{bytecode.OpIdentity},
			Out: RegOp("r", "v"), In1: ConstOp("c1"), In2: Absent,
		},
		{
			Ops: []bytecode.Opcode{
				bytecode.OpAdd, bytecode.OpSubtract, bytecode.OpMultiply,
				bytecode.OpDivide, bytecode.OpPower,
			},
			Out: RegOp("r", "v"), In1: RegOp("r", "v"), In2: ConstOp("c2"),
		},
	},
	Protect: []Protected{{Reg: "r", View: "v"}},
})

// Apply implements Rule.
func (IdentityFoldRule) Apply(p *bytecode.Program) (int, error) {
	return foldRuns(p, &identityFoldPattern, foldIdentity), nil
}

// foldIdentity folds second's arithmetic into first's initial constant.
func foldIdentity(_ *bytecode.Program, first, second *bytecode.Instruction) bool {
	folded, ok := foldConstants(second.Op, first.In1.Const, second.In2.Const)
	if ok {
		first.In1 = bytecode.Const(folded)
	}
	return ok
}

// foldConstants evaluates op(c1, c2) at rewrite time, exactly for integer
// constants.
func foldConstants(op bytecode.Opcode, c1, c2 bytecode.Constant) (bytecode.Constant, bool) {
	if isExactInt(c1) && isExactInt(c2) {
		a, b := c1.Int(), c2.Int()
		switch op {
		case bytecode.OpAdd:
			return bytecode.ConstInt(a + b), true
		case bytecode.OpSubtract:
			return bytecode.ConstInt(a - b), true
		case bytecode.OpMultiply:
			return bytecode.ConstInt(a * b), true
		case bytecode.OpDivide:
			if b == 0 {
				return bytecode.Constant{}, false
			}
			return bytecode.ConstInt(a / b), true
		case bytecode.OpPower:
			if b < 0 {
				return bytecode.Constant{}, false
			}
			return bytecode.ConstInt(ipowConst(a, b)), true
		}
		return bytecode.Constant{}, false
	}
	a, b := c1.Float(), c2.Float()
	switch op {
	case bytecode.OpAdd:
		return bytecode.ConstFloat(a + b), true
	case bytecode.OpSubtract:
		return bytecode.ConstFloat(a - b), true
	case bytecode.OpMultiply:
		return bytecode.ConstFloat(a * b), true
	case bytecode.OpDivide:
		if b == 0 {
			return bytecode.Constant{}, false
		}
		return bytecode.ConstFloat(a / b), true
	default:
		return bytecode.Constant{}, false
	}
}

func ipowConst(base, exp int64) int64 {
	result := int64(1)
	for exp > 0 {
		if exp&1 == 1 {
			result *= base
		}
		base *= base
		exp >>= 1
	}
	return result
}

// IdentityElimRule removes or simplifies byte-codes that apply an
// operation's neutral element: x+0, x-0, x·1, x/1, x¹ vanish (or become
// plain copies when source and destination differ); x⁰ and x·0 become
// constant initializations.
type IdentityElimRule struct{}

// Name implements Rule.
func (IdentityElimRule) Name() string { return "identity-elim" }

// Apply implements Rule.
func (IdentityElimRule) Apply(p *bytecode.Program) (int, error) {
	total := 0
	for i := range p.Instrs {
		in := &p.Instrs[i]
		if in.Op.Info().Arity != 2 || !in.In2.IsConst() || !in.In1.IsReg() || !in.Out.IsReg() {
			continue
		}
		c := in.In2.Const.Float()
		info := in.Op.Info()
		switch {
		case info.HasIdentity && c == info.Identity &&
			(in.Op == bytecode.OpAdd || in.Op == bytecode.OpSubtract ||
				in.Op == bytecode.OpMultiply || in.Op == bytecode.OpDivide ||
				in.Op == bytecode.OpPower):
			if in.Out.Reg == in.In1.Reg && in.Out.View.Equal(in.In1.View) {
				p.Instrs[i] = bytecode.Instruction{}
			} else {
				p.Instrs[i] = bytecode.Instruction{Op: bytecode.OpIdentity, Out: in.Out, In1: in.In1}
			}
			total++
		case in.Op == bytecode.OpPower && c == 0:
			// x⁰ = 1 for every element (NumPy: pow(x, 0) == 1, incl. 0⁰).
			p.Instrs[i] = bytecode.Instruction{
				Op:  bytecode.OpIdentity,
				Out: in.Out,
				In1: bytecode.Const(constOne(p, in.Out.Reg)),
			}
			total++
		case in.Op == bytecode.OpMultiply && c == 0 && !couldBeNaN(p, in.In1.Reg):
			// x·0 = 0 — only for integer registers, where no NaN/Inf can
			// make 0·x ≠ 0.
			p.Instrs[i] = bytecode.Instruction{
				Op:  bytecode.OpIdentity,
				Out: in.Out,
				In1: bytecode.Const(bytecode.ConstInt(0)),
			}
			total++
		}
	}
	compact(p)
	return total, nil
}

func constOne(p *bytecode.Program, r bytecode.RegID) bytecode.Constant {
	ri, _ := p.Reg(r)
	return bytecode.ConstOf(ri.DType, 1)
}

// couldBeNaN reports whether register r can hold NaN or infinities — true
// for float registers, where x·0 must not fold to 0.
func couldBeNaN(p *bytecode.Program, r bytecode.RegID) bool {
	ri, ok := p.Reg(r)
	return !ok || ri.DType.IsFloat()
}

func signOf(op bytecode.Opcode) int64 {
	if op == bytecode.OpSubtract {
		return -1
	}
	return 1
}

func isExactInt(c bytecode.Constant) bool {
	return (c.DType.IsInteger() || c.DType == tensor.Bool) && c.IsIntegral()
}
