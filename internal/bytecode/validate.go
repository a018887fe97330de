package bytecode

import (
	"errors"
	"fmt"

	"bohrium/internal/tensor"
)

// ErrInvalid wraps all semantic validation errors.
var ErrInvalid = errors.New("bytecode: invalid program")

// Validate checks a program's static semantics: operand arity and kinds,
// view bounds against register declarations, shape compatibility under
// broadcasting, reduction axes, def-before-use, and use-after-free. The VM
// refuses to execute programs that fail validation, and the rewrite engine
// asserts validity is preserved across every pass (a rewrite that produces
// an invalid program is a bug, caught in tests).
func (p *Program) Validate() error {
	var buf [64]bool // small programs validate without allocating
	live := buf[:min(len(p.Regs), len(buf))]
	if len(p.Regs) > len(buf) {
		live = make([]bool, len(p.Regs))
	}
	for _, r := range p.Inputs {
		if r < 0 || int(r) >= len(p.Regs) {
			return fmt.Errorf("%w: input declares unknown register %s", ErrInvalid, r)
		}
		live[r] = true
	}
	for idx := range p.Instrs {
		if err := p.validateInstr(&p.Instrs[idx], live); err != nil {
			return fmt.Errorf("%w: instr %d (%s): %w", ErrInvalid, idx, p.Instrs[idx].String(), err)
		}
	}
	return nil
}

func (p *Program) validateInstr(in *Instruction, live []bool) error {
	info := in.Op.Info()
	if !in.Op.Valid() {
		return fmt.Errorf("invalid op-code %d", int(in.Op))
	}
	if in.Op == OpNone {
		return nil
	}

	// Every instruction other than NONE names a register result.
	if !in.Out.IsReg() {
		return fmt.Errorf("result operand must be a register")
	}
	if err := p.checkRegOperand(&in.Out); err != nil {
		return fmt.Errorf("result: %w", err)
	}

	switch in.Op {
	case OpSync, OpFree:
		if !live[in.Out.Reg] {
			return fmt.Errorf("%s of undefined register %s", info.Name, in.Out.Reg)
		}
		if in.Op == OpFree {
			live[in.Out.Reg] = false
		}
		if in.In1.Kind != OperandNone || in.In2.Kind != OperandNone {
			return fmt.Errorf("%s takes no inputs", info.Name)
		}
		return nil
	}

	ins := [2]*Operand{&in.In1, &in.In2}
	inputs := ins[:in.numInputs()]
	if len(inputs) != info.Arity {
		return fmt.Errorf("%s wants %d inputs, got %d", info.Name, info.Arity, len(inputs))
	}
	for i, opnd := range inputs {
		if !opnd.IsReg() {
			continue
		}
		if err := p.checkRegOperand(opnd); err != nil {
			return fmt.Errorf("input %d: %w", i+1, err)
		}
		if !live[opnd.Reg] {
			return fmt.Errorf("input %d reads undefined or freed register %s", i+1, opnd.Reg)
		}
	}

	if err := p.validateShapes(in, inputs); err != nil {
		return err
	}
	live[in.Out.Reg] = true
	return nil
}

func (p *Program) checkRegOperand(o *Operand) error {
	ri, ok := p.Reg(o.Reg)
	if !ok {
		return fmt.Errorf("unknown register %s", o.Reg)
	}
	if err := o.View.Validate(ri.Len); err != nil {
		return err
	}
	return nil
}

func (p *Program) validateShapes(in *Instruction, inputs []*Operand) error {
	info := in.Op.Info()
	out := in.Out.View.Shape

	switch info.Kind {
	case KindGenerator:
		if in.Op == OpRandom {
			for i, opnd := range inputs {
				if !opnd.IsConst() {
					return fmt.Errorf("BH_RANDOM input %d must be a constant", i+1)
				}
			}
		}
		if in.Op == OpIdentity && inputs[0].IsReg() && !inputs[0].View.Shape.BroadcastableTo(out) {
			return notBroadcastable(inputs[0].View.Shape, out, "input")
		}
		return nil

	case KindUnary, KindBinary:
		for i, opnd := range inputs {
			// The label is formatted only on failure: this loop runs for
			// every input of every instruction on each validation.
			if opnd.IsReg() && !opnd.View.Shape.BroadcastableTo(out) {
				return notBroadcastable(opnd.View.Shape, out, fmt.Sprintf("input %d", i+1))
			}
		}
		if info.Bool && p.Regs[in.Out.Reg].DType != tensor.Bool {
			return fmt.Errorf("%s result register must be bool, is %s", info.Name, p.Regs[in.Out.Reg].DType)
		}
		return nil

	case KindReduction, KindScan:
		if !inputs[0].IsReg() {
			return fmt.Errorf("%s input must be a register", info.Name)
		}
		src := inputs[0].View.Shape
		if in.Axis < 0 || in.Axis >= src.NDim() {
			return fmt.Errorf("axis %d out of range for %d-d input", in.Axis, src.NDim())
		}
		if info.Kind == KindScan {
			if !out.Equal(src) {
				return fmt.Errorf("scan result shape %v must equal input shape %v", out, src)
			}
			return nil
		}
		want := make(tensor.Shape, 0, src.NDim()-1)
		for d := 0; d < src.NDim(); d++ {
			if d != in.Axis {
				want = append(want, src[d])
			}
		}
		if out.Equal(want) {
			return nil
		}
		// A full reduction may land in a 0-d or 1-element view.
		if len(want) == 0 && out.Size() == 1 {
			return nil
		}
		return fmt.Errorf("reduce result shape %v, want %v", out, want)

	case KindExtension:
		return p.validateExtensionShapes(in, inputs)

	default:
		return nil
	}
}

func (p *Program) validateExtensionShapes(in *Instruction, inputs []*Operand) error {
	dims := func(o *Operand) tensor.Shape { return o.View.Shape }
	for i, opnd := range inputs {
		if !opnd.IsReg() {
			return fmt.Errorf("%s input %d must be a register", in.Op, i+1)
		}
	}
	out := in.Out.View.Shape
	switch in.Op {
	case OpMatmul:
		a, b := dims(inputs[0]), dims(inputs[1])
		if a.NDim() != 2 || b.NDim() != 2 || out.NDim() != 2 {
			return fmt.Errorf("BH_MATMUL wants 2-d operands")
		}
		if a[1] != b[0] || out[0] != a[0] || out[1] != b[1] {
			return fmt.Errorf("BH_MATMUL shapes %v x %v -> %v do not chain", a, b, out)
		}
	case OpLU, OpInverse:
		a := dims(inputs[0])
		if a.NDim() != 2 || a[0] != a[1] {
			return fmt.Errorf("%s wants a square matrix, got %v", in.Op, a)
		}
		if !out.Equal(a) {
			return fmt.Errorf("%s result shape %v, want %v", in.Op, out, a)
		}
	case OpSolve:
		a, b := dims(inputs[0]), dims(inputs[1])
		if a.NDim() != 2 || a[0] != a[1] {
			return fmt.Errorf("BH_SOLVE coefficient matrix must be square, got %v", a)
		}
		if b.NDim() < 1 || b.NDim() > 2 || b[0] != a[0] {
			return fmt.Errorf("BH_SOLVE right-hand side %v incompatible with %v", b, a)
		}
		if !out.Equal(b) {
			return fmt.Errorf("BH_SOLVE result shape %v, want %v", out, b)
		}
	}
	return nil
}

func notBroadcastable(src, dst tensor.Shape, what string) error {
	return fmt.Errorf("%s shape %v not broadcastable to result %v", what, src, dst)
}
