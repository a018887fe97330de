package bytecode

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"bohrium/internal/tensor"
)

// RegID names a byte-code register ("a0", "a1", ...). Registers denote base
// arrays; operands address them through views.
type RegID int

// String returns the textual register name used in listings.
func (r RegID) String() string { return "a" + strconv.Itoa(int(r)) }

// Constant is a typed scalar immediate. Integer constants keep an exact
// int64 so that the constant-merging rewrite (paper Listing 2→3) can fold
// integer additions without rounding.
type Constant struct {
	DType tensor.DType
	F     float64
	I     int64
}

// ConstFloat builds a float64 constant.
func ConstFloat(v float64) Constant {
	return Constant{DType: tensor.Float64, F: v, I: int64(v)}
}

// ConstInt builds an int64 constant.
func ConstInt(v int64) Constant {
	return Constant{DType: tensor.Int64, F: float64(v), I: v}
}

// ConstBool builds a bool constant.
func ConstBool(v bool) Constant {
	c := Constant{DType: tensor.Bool}
	if v {
		c.F, c.I = 1, 1
	}
	return c
}

// ConstOf builds a constant of the given dtype from a float64 value.
func ConstOf(dt tensor.DType, v float64) Constant {
	switch {
	case dt == tensor.Bool:
		return ConstBool(v != 0)
	case dt.IsInteger():
		c := ConstInt(int64(v))
		c.DType = dt
		return c
	default:
		c := ConstFloat(v)
		c.DType = dt
		return c
	}
}

// Float returns the numeric value widened to float64.
func (c Constant) Float() float64 {
	if c.DType.IsInteger() || c.DType == tensor.Bool {
		return float64(c.I)
	}
	return c.F
}

// Int returns the numeric value as int64 (floats truncate).
func (c Constant) Int() int64 {
	if c.DType.IsInteger() || c.DType == tensor.Bool {
		return c.I
	}
	return int64(c.F)
}

// IsIntegral reports whether the constant holds an exact integer value,
// regardless of dtype: 3.0 is integral, 3.5 is not. The power-expansion
// rewrite (paper eq. (1)) requires an integral exponent.
func (c Constant) IsIntegral() bool {
	if c.DType.IsInteger() || c.DType == tensor.Bool {
		return true
	}
	return c.F == math.Trunc(c.F) && !math.IsInf(c.F, 0) && !math.IsNaN(c.F)
}

// Equal reports exact equality of dtype and value.
func (c Constant) Equal(d Constant) bool {
	return c.DType == d.DType && c.F == d.F && c.I == d.I
}

// String prints the constant the way the paper's listings do: bare numbers.
func (c Constant) String() string {
	switch {
	case c.DType == tensor.Bool:
		if c.I != 0 {
			return "true"
		}
		return "false"
	case c.DType.IsInteger():
		return strconv.FormatInt(c.I, 10)
	default:
		s := strconv.FormatFloat(c.F, 'g', -1, 64)
		// Distinguish float constants from int ones in the text format so
		// that parse(print(p)) round-trips dtypes.
		if !strings.ContainsAny(s, ".eE") && !math.IsInf(c.F, 0) && !math.IsNaN(c.F) {
			s += ".0"
		}
		return s
	}
}

// OperandKind discriminates Operand variants.
type OperandKind int

// Operand variants.
const (
	// OperandNone marks an absent operand slot.
	OperandNone OperandKind = iota
	// OperandReg is a register addressed through a view.
	OperandReg
	// OperandConst is a scalar immediate.
	OperandConst
)

// Operand is a register-with-view or a constant (paper §3: "up to two
// parameter registers or constants").
type Operand struct {
	Kind  OperandKind
	Reg   RegID
	View  tensor.View
	Const Constant
}

// Reg builds a register operand with the given view.
func Reg(id RegID, view tensor.View) Operand {
	return Operand{Kind: OperandReg, Reg: id, View: view}
}

// Const builds a constant operand.
func Const(c Constant) Operand {
	return Operand{Kind: OperandConst, Const: c}
}

// None is the absent operand.
func None() Operand { return Operand{Kind: OperandNone} }

// IsReg reports whether o is a register operand.
func (o *Operand) IsReg() bool { return o.Kind == OperandReg }

// IsConst reports whether o is a constant operand.
func (o *Operand) IsConst() bool { return o.Kind == OperandConst }

// String prints the operand in listing syntax: "a0 [0:10:1]" or "3".
func (o Operand) String() string {
	switch o.Kind {
	case OperandReg:
		return o.Reg.String() + " " + o.View.String()
	case OperandConst:
		return o.Const.String()
	default:
		return "_"
	}
}

// Instruction is one byte-code: op-code, result operand, up to two inputs,
// and for reductions/scans the axis being folded.
//
// Invariants (enforced by Program.Validate): every instruction except
// BH_NONE names a register result; the populated input slots match the
// op-code's arity, filling In1 first; and Axis is meaningful only for
// KindReduction/KindScan instructions, where it indexes a dimension of
// In1's view (the *input* — the result view has one dimension fewer for
// reductions and the same shape for scans).
type Instruction struct {
	Op  Opcode
	Out Operand
	In1 Operand
	In2 Operand
	// Axis is the folded dimension of In1.View for reductions and
	// scans; zero (and ignored) otherwise. The assembler reads and the
	// disassembler prints it as a trailing "axis=N".
	Axis int
}

// Inputs returns the populated input operands in order.
func (in *Instruction) Inputs() []Operand {
	return []Operand{in.In1, in.In2}[:in.numInputs()]
}

// numInputs counts the populated input operands, which are always a
// prefix: In2 set means both inputs are, else In1 alone if set.
func (in *Instruction) numInputs() int {
	switch {
	case in.In2.Kind != OperandNone:
		return 2
	case in.In1.Kind != OperandNone:
		return 1
	}
	return 0
}

// ReadsReg reports whether the instruction reads register r through any
// input operand.
func (in *Instruction) ReadsReg(r RegID) bool {
	return in.In1.IsReg() && in.In1.Reg == r || in.In2.IsReg() && in.In2.Reg == r
}

// WritesReg reports whether the instruction writes register r. SYNC and
// FREE do not write; every other instruction writes its Out register.
func (in *Instruction) WritesReg(r RegID) bool {
	if in.Op == OpSync || in.Op == OpFree || in.Op == OpNone {
		return false
	}
	return in.Out.IsReg() && in.Out.Reg == r
}

// String prints the instruction as one listing line, e.g.
// "BH_ADD a0 [0:10:1] a0 [0:10:1] 1".
func (in Instruction) String() string {
	var b strings.Builder
	b.WriteString(in.Op.String())
	if in.Out.Kind != OperandNone {
		b.WriteByte(' ')
		b.WriteString(in.Out.String())
	}
	for _, op := range []Operand{in.In1, in.In2} {
		if op.Kind != OperandNone {
			b.WriteByte(' ')
			b.WriteString(op.String())
		}
	}
	if in.Op.Info().Kind == KindReduction || in.Op.Info().Kind == KindScan {
		fmt.Fprintf(&b, " axis=%d", in.Axis)
	}
	return b.String()
}
