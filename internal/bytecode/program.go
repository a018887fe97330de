package bytecode

import (
	"fmt"
	"strings"

	"bohrium/internal/tensor"
)

// RegInfo declares a register's base array: its element type and length in
// elements. The VM's register file allocates buffers from these
// declarations; views in operands address into them.
type RegInfo struct {
	DType tensor.DType
	Len   int
}

// Program is a flat sequence of byte-code instructions plus the register
// declarations they refer to. It is the unit the rewrite engine transforms
// and the VM executes — Bohrium calls this a "batch" or instruction list.
//
// A program owns no buffers: registers are declarations (RegInfo), and
// the VM's register file materializes them lazily at first definition.
// Inputs and Outputs are the program's contract with its caller — the
// only liveness facts a transformation may not infer from the
// instruction stream itself. Dump emits a listing that Parse reads back
// losslessly (declarations as ".reg", inputs/outputs as ".in"/".out");
// the format is specified in docs/bytecode.md.
type Program struct {
	Regs   []RegInfo
	Instrs []Instruction
	// Inputs lists registers whose buffers are bound by the front-end
	// before execution (pre-existing arrays); they are live at entry
	// without a defining instruction.
	Inputs []RegID
	// Outputs lists registers observable after execution (arrays the
	// front-end still holds handles to); the optimizer must preserve
	// their final values even without an explicit BH_SYNC.
	Outputs []RegID
}

// NewProgram returns an empty program.
func NewProgram() *Program { return &Program{} }

// NewReg declares a fresh register with the given dtype and base length,
// returning its id.
func (p *Program) NewReg(dt tensor.DType, n int) RegID {
	p.Regs = append(p.Regs, RegInfo{DType: dt, Len: n})
	return RegID(len(p.Regs) - 1)
}

// MarkInput declares r as bound before execution.
func (p *Program) MarkInput(r RegID) { p.Inputs = append(p.Inputs, r) }

// IsInput reports whether r is bound before execution.
func (p *Program) IsInput(r RegID) bool {
	for _, in := range p.Inputs {
		if in == r {
			return true
		}
	}
	return false
}

// MarkOutput declares r as externally observable after execution.
func (p *Program) MarkOutput(r RegID) { p.Outputs = append(p.Outputs, r) }

// IsOutput reports whether r is externally observable after execution.
func (p *Program) IsOutput(r RegID) bool {
	for _, out := range p.Outputs {
		if out == r {
			return true
		}
	}
	return false
}

// Reg returns the declaration of register r and whether it exists.
func (p *Program) Reg(r RegID) (RegInfo, bool) {
	if r < 0 || int(r) >= len(p.Regs) {
		return RegInfo{}, false
	}
	return p.Regs[r], true
}

// Emit appends an instruction.
func (p *Program) Emit(in Instruction) { p.Instrs = append(p.Instrs, in) }

// EmitBinary appends "op out in1 in2".
func (p *Program) EmitBinary(op Opcode, out, in1, in2 Operand) {
	p.Emit(Instruction{Op: op, Out: out, In1: in1, In2: in2})
}

// EmitUnary appends "op out in1".
func (p *Program) EmitUnary(op Opcode, out, in1 Operand) {
	p.Emit(Instruction{Op: op, Out: out, In1: in1})
}

// EmitIdentity appends "BH_IDENTITY out src" (copy / fill).
func (p *Program) EmitIdentity(out, src Operand) {
	p.Emit(Instruction{Op: OpIdentity, Out: out, In1: src})
}

// EmitSync appends "BH_SYNC out", requesting out's data be materialized.
func (p *Program) EmitSync(out Operand) {
	p.Emit(Instruction{Op: OpSync, Out: out})
}

// EmitFree appends "BH_FREE out", releasing the register's buffer.
func (p *Program) EmitFree(out Operand) {
	p.Emit(Instruction{Op: OpFree, Out: out})
}

// EmitReduce appends a reduction over the given axis.
func (p *Program) EmitReduce(op Opcode, out, in Operand, axis int) {
	p.Emit(Instruction{Op: op, Out: out, In1: in, Axis: axis})
}

// Len returns the number of instructions.
func (p *Program) Len() int { return len(p.Instrs) }

// Clone returns a deep copy of the program; rewrites operate on copies so
// callers keep the original stream for comparison runs. The copied views'
// shapes and strides are carved from one slab, each with its own capacity,
// so a clone costs a handful of allocations whatever its length.
func (p *Program) Clone() *Program {
	out := &Program{
		Regs:    append([]RegInfo(nil), p.Regs...),
		Instrs:  make([]Instruction, len(p.Instrs)),
		Inputs:  append([]RegID(nil), p.Inputs...),
		Outputs: append([]RegID(nil), p.Outputs...),
	}
	n := 0
	for i := range p.Instrs {
		in := &p.Instrs[i]
		for _, o := range [...]*Operand{&in.Out, &in.In1, &in.In2} {
			if o.IsReg() {
				n += len(o.View.Shape) + len(o.View.Strides)
			}
		}
	}
	slab := make([]int, n)
	for i := range out.Instrs {
		in := &out.Instrs[i]
		*in = p.Instrs[i]
		for _, o := range [...]*Operand{&in.Out, &in.In1, &in.In2} {
			if o.IsReg() {
				slab = copyView(&o.View, slab)
			}
		}
	}
	return out
}

// copyView points v's shape and strides at copies carved from the front
// of slab and returns the rest of slab. Like View.Clone, empty strides
// become nil.
func copyView(v *tensor.View, slab []int) []int {
	nd, ns := len(v.Shape), len(v.Strides)
	shape, strides := slab[:nd:nd], slab[nd:nd+ns:nd+ns]
	copy(shape, v.Shape)
	copy(strides, v.Strides)
	v.Shape, v.Strides = shape, nil
	if ns > 0 {
		v.Strides = strides
	}
	return slab[nd+ns:]
}

// CountOp returns how many instructions use op — experiment tables report
// e.g. the number of BH_MULTIPLYs before/after rewriting.
func (p *Program) CountOp(op Opcode) int {
	n := 0
	for i := range p.Instrs {
		if p.Instrs[i].Op == op {
			n++
		}
	}
	return n
}

// CountKind returns how many instructions belong to the given kind.
func (p *Program) CountKind(k OpKind) int {
	n := 0
	for i := range p.Instrs {
		if p.Instrs[i].Op.Info().Kind == k {
			n++
		}
	}
	return n
}

// WorkEstimate returns the cost model's per-element work estimate for the
// whole program: sum over instructions of view size times op cost.
// Extension methods are charged by their own asymptotic formulas.
func (p *Program) WorkEstimate() float64 {
	total := 0.0
	for i := range p.Instrs {
		total += InstrCost(&p.Instrs[i])
	}
	return total
}

// InstrCost estimates the cost of a single instruction under the model
// where one elementwise sweep of n elements costs n cost units.
func InstrCost(in *Instruction) float64 {
	info := in.Op.Info()
	switch info.Kind {
	case KindSystem:
		return 0
	case KindExtension:
		// Superlinear extension methods: charge by matrix dimension m
		// (views are m×m or m×k; use the output's leading extent).
		m := 1.0
		if in.Out.IsReg() && in.Out.View.NDim() > 0 {
			m = float64(in.Out.View.Shape[0])
		}
		switch in.Op {
		case OpMatmul:
			return 2 * m * m * m
		case OpLU:
			return 2.0 / 3.0 * m * m * m
		case OpSolve:
			return 2.0/3.0*m*m*m + 2*m*m
		case OpInverse:
			return 2 * m * m * m
		default:
			return m * m
		}
	default:
		n := 0
		if in.Out.IsReg() {
			n = in.Out.View.Size()
		}
		if info.Kind == KindReduction || info.Kind == KindScan {
			// Reductions sweep the input, not the (smaller) output.
			if in.In1.IsReg() {
				n = in.In1.View.Size()
			}
		}
		return float64(n) * info.Cost
	}
}

// String disassembles the whole program in the paper's listing format, one
// instruction per line.
func (p *Program) String() string {
	var b strings.Builder
	for i := range p.Instrs {
		b.WriteString(p.Instrs[i].String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Dump disassembles with register declarations as ".reg" directives so the
// result can be parsed back losslessly (see Parse).
func (p *Program) Dump() string {
	var b strings.Builder
	for i, r := range p.Regs {
		fmt.Fprintf(&b, ".reg a%d %s %d\n", i, r.DType, r.Len)
	}
	for _, r := range p.Inputs {
		fmt.Fprintf(&b, ".in %s\n", r)
	}
	for _, r := range p.Outputs {
		fmt.Fprintf(&b, ".out %s\n", r)
	}
	b.WriteString(p.String())
	return b.String()
}
