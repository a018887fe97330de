package rewrite

import (
	"slices"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// The pattern matcher. Rules describe byte-code sequences as ordered
// InstrPatterns over named binding variables: the same register variable
// must bind the same register everywhere it appears, the same view
// variable the same (exactly equal) view, the same constant variable the
// same constant. Sequences tolerate gaps: unrelated byte-codes may sit
// between matched ones as long as they do not touch any *protected*
// binding (interference analysis from deps.go). That gap tolerance is what
// makes the rewriter effective on real interleaved streams rather than
// only on the paper's adjacent listings.
//
// Matching allocates nothing. compile numbers each kind of variable in
// the order the matcher meets it, so the variables bound after any
// matched prefix are exactly the first few slots of each kind: a binding
// is three fixed arrays plus their counts, and backtracking restores the
// counts.

// maxVars bounds the variables of each kind, maxPats the instruction
// patterns, of one sequence.
const maxVars, maxPats = 4, 4

type varCounts struct{ regs, views, consts int8 }

// Binding is the variable environment accumulated during a match. Views
// point at the matched operands inside the program, so they are valid
// only until the program is edited; registers and constants are copies.
type Binding struct {
	regs   [maxVars]bytecode.RegID
	views  [maxVars]*tensor.View
	consts [maxVars]bytecode.Constant
	n      varCounts
}

// bind unifies slot with v: a bound slot (below *n) must hold a value
// equal to v, the next free slot takes v. A negative slot is an unnamed
// operand.
func bind[T any](vals *[maxVars]T, n *int8, slot int8, v T, eq func(a, b T) bool) bool {
	if slot < 0 {
		return true
	}
	if slot < *n {
		return eq(vals[slot], v)
	}
	vals[slot], *n = v, *n+1
	return true
}

func sameReg(a, b bytecode.RegID) bool      { return a == b }
func sameView(a, b *tensor.View) bool       { return a.Equal(*b) }
func sameConst(a, b bytecode.Constant) bool { return a.Equal(b) }

// OperandPattern matches one operand slot.
type OperandPattern struct {
	// Want constrains the operand kind; zero (OperandNone) means the slot
	// must be absent.
	Want bytecode.OperandKind
	// Reg and View name binding variables for register operands.
	Reg  string
	View string
	// Const names a binding variable for constant operands.
	Const string

	reg, view, cnst int8 // slots assigned by compile
}

// RegOp matches a register operand binding its register and view.
func RegOp(reg, view string) OperandPattern {
	return OperandPattern{Want: bytecode.OperandReg, Reg: reg, View: view}
}

// ConstOp matches a constant operand binding it under name.
func ConstOp(name string) OperandPattern {
	return OperandPattern{Want: bytecode.OperandConst, Const: name}
}

// Absent matches an empty operand slot.
var Absent = OperandPattern{Want: bytecode.OperandNone}

func (op *OperandPattern) match(o *bytecode.Operand, b *Binding) bool {
	switch {
	case o.Kind != op.Want:
		return false
	case o.Kind == bytecode.OperandReg:
		return bind(&b.regs, &b.n.regs, op.reg, o.Reg, sameReg) &&
			bind(&b.views, &b.n.views, op.view, &o.View, sameView)
	case o.Kind == bytecode.OperandConst:
		return bind(&b.consts, &b.n.consts, op.cnst, o.Const, sameConst)
	}
	return true
}

// InstrPattern matches one instruction.
type InstrPattern struct {
	// Ops lists acceptable op-codes (empty means any).
	Ops []bytecode.Opcode
	// Out, In1, In2 constrain the operand slots.
	Out, In1, In2 OperandPattern
}

func (ip *InstrPattern) match(in *bytecode.Instruction, b *Binding) bool {
	if len(ip.Ops) > 0 && !slices.Contains(ip.Ops, in.Op) {
		return false
	}
	return ip.Out.match(&in.Out, b) && ip.In1.match(&in.In1, b) && ip.In2.match(&in.In2, b)
}

// SeqPattern is an ordered sequence of instruction patterns with
// interference-checked gaps. Build one with compile.
type SeqPattern struct {
	Pats []InstrPattern
	// Protect lists bindings that gap instructions between two matched
	// positions must not interfere with.
	Protect []Protected
	// NoGaps requires strictly adjacent matches (the paper's literal
	// listings); the ablation experiments use it to quantify what gap
	// tolerance buys.
	NoGaps bool

	vars *varNames // set by compile
}

// varNames lists a compiled pattern's variable names per kind; a name's
// index is its slot.
type varNames struct{ regs, views, consts []string }

// declare returns name's slot, appending it to names if it is new.
func declare(names *[]string, name string) int8 {
	if name == "" {
		return -1
	}
	if s := int8(slices.Index(*names, name)); s >= 0 {
		return s
	}
	if len(*names) == maxVars {
		panic("rewrite: pattern binds more than maxVars variables of one kind: " + name)
	}
	*names = append(*names, name)
	return int8(len(*names) - 1)
}

// compile assigns every variable its slot, in the order match binds them,
// and returns the pattern ready for FindFrom. It copies Pats and Protect,
// so sp's own slices stay untouched.
func compile(sp SeqPattern) SeqPattern {
	vars := &varNames{}
	sp.Pats = slices.Clone(sp.Pats)
	for i := range sp.Pats {
		for _, op := range [...]*OperandPattern{&sp.Pats[i].Out, &sp.Pats[i].In1, &sp.Pats[i].In2} {
			op.reg, op.view, op.cnst = -1, -1, -1
			switch op.Want {
			case bytecode.OperandReg:
				op.reg, op.view = declare(&vars.regs, op.Reg), declare(&vars.views, op.View)
			case bytecode.OperandConst:
				op.cnst = declare(&vars.consts, op.Const)
			}
		}
	}
	sp.Protect = slices.Clone(sp.Protect)
	for i := range sp.Protect {
		pr := &sp.Protect[i]
		pr.reg, pr.view = int8(slices.Index(vars.regs, pr.Reg)), int8(slices.Index(vars.views, pr.View))
	}
	sp.vars = vars
	return sp
}

// Match is a successful sequence match: the instruction indices matched,
// in order (the first len(Pats) entries of Positions), and the final
// variable binding.
type Match struct {
	Positions [maxPats]int
	vars      *varNames
	b         Binding
}

func mustSlot(names []string, name string) int {
	s := slices.Index(names, name)
	if s < 0 {
		panic("rewrite: pattern has no variable " + name)
	}
	return s
}

// Reg returns the register bound to variable name.
func (m *Match) Reg(name string) bytecode.RegID { return m.b.regs[mustSlot(m.vars.regs, name)] }

// Const returns the constant bound to variable name.
func (m *Match) Const(name string) bytecode.Constant {
	return m.b.consts[mustSlot(m.vars.consts, name)]
}

// FindFrom returns the first match of the sequence starting at or after
// instruction index from, scanning left to right.
func (sp *SeqPattern) FindFrom(p *bytecode.Program, from int) (Match, bool) {
	if sp.vars == nil {
		panic("rewrite: SeqPattern used without compile")
	}
	m := Match{vars: sp.vars}
	for i := from; i < len(p.Instrs); i++ {
		m.b.n = varCounts{}
		if !sp.Pats[0].match(&p.Instrs[i], &m.b) {
			continue
		}
		m.Positions[0] = i
		if sp.extend(p, &m, 1) {
			return m, true
		}
	}
	return Match{}, false
}

// Find returns the first match in the program.
func (sp *SeqPattern) Find(p *bytecode.Program) (Match, bool) {
	return sp.FindFrom(p, 0)
}

// extend matches Pats[k:] after position k-1, backtracking over the
// candidate positions; on failure m's binding is as it was on entry.
func (sp *SeqPattern) extend(p *bytecode.Program, m *Match, k int) bool {
	if k == len(sp.Pats) {
		return true
	}
	prev := m.Positions[k-1]
	for j := prev + 1; j < len(p.Instrs); j++ {
		if sp.NoGaps && j != prev+1 {
			break
		}
		saved := m.b.n
		if sp.Pats[k].match(&p.Instrs[j], &m.b) && sp.gapsClear(p, prev, j, &m.b) {
			m.Positions[k] = j
			if sp.extend(p, m, k+1) {
				return true
			}
		}
		m.b.n = saved
		// Even when instruction j does not match (or the match fails
		// deeper), the scan may only continue past j if j itself does
		// not interfere with the protected bindings.
		if !sp.gapInstrClear(p, j, &m.b) {
			break
		}
	}
	return false
}

// nextPartner continues a run merge of a two-pattern sequence: it
// rebinds Pats[0] at m.Positions[0] and returns the first match of
// Pats[1] after j, scanning, unless NoGaps, through gap instructions
// clear of the protected bindings, tombstones among them (under NoGaps
// a run's partners are consecutive, so no tombstone lies ahead).
func (sp *SeqPattern) nextPartner(p *bytecode.Program, m *Match, j int) (int, bool) {
	m.b.n = varCounts{}
	sp.Pats[0].match(&p.Instrs[m.Positions[0]], &m.b)
	for k := j + 1; k < len(p.Instrs); k++ {
		saved := m.b.n
		if sp.Pats[1].match(&p.Instrs[k], &m.b) {
			return k, true
		}
		m.b.n = saved
		if sp.NoGaps || !sp.gapInstrClear(p, k, &m.b) {
			break
		}
	}
	return 0, false
}

func (sp *SeqPattern) gapsClear(p *bytecode.Program, i, j int, b *Binding) bool {
	for k := i + 1; k < j; k++ {
		if !sp.gapInstrClear(p, k, b) {
			return false
		}
	}
	return true
}

func (sp *SeqPattern) gapInstrClear(p *bytecode.Program, k int, b *Binding) bool {
	in := &p.Instrs[k]
	for i := range sp.Protect {
		pr := &sp.Protect[i]
		if pr.reg < 0 || pr.reg >= b.n.regs {
			continue // variable not bound yet: nothing to protect
		}
		reg := b.regs[pr.reg]
		if pr.view >= 0 && pr.view < b.n.views {
			view := *b.views[pr.view]
			if writesOverlap(in, reg, view) {
				return false
			}
			if !pr.WritesOnly && readsOverlap(in, reg, view) {
				return false
			}
			continue
		}
		// No view bound: protect the whole register.
		if in.WritesReg(reg) || (in.Op == bytecode.OpFree && in.Out.IsReg() && in.Out.Reg == reg) {
			return false
		}
		if !pr.WritesOnly && readsReg(in, reg) {
			return false
		}
	}
	return true
}

// Protected names a (register, view) binding pair that gap instructions
// must leave alone. WritesOnly permits gap reads (enough when the matched
// sequence only reads the binding itself).
type Protected struct {
	Reg, View  string
	WritesOnly bool

	reg, view int8 // slots assigned by compile
}
