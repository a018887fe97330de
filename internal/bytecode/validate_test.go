package bytecode

import (
	"errors"
	"strings"
	"testing"

	"bohrium/internal/tensor"
)

func TestValidateRejects(t *testing.T) {
	v4 := tensor.NewView(tensor.MustShape(4))
	v8 := tensor.NewView(tensor.MustShape(8))

	tests := []struct {
		name  string
		build func() *Program
		want  string
	}{
		{
			name: "use before def",
			build: func() *Program {
				p := NewProgram()
				a := p.NewReg(tensor.Float64, 4)
				b := p.NewReg(tensor.Float64, 4)
				p.EmitIdentity(Reg(a, v4), Const(ConstInt(0)))
				p.EmitBinary(OpAdd, Reg(a, v4), Reg(a, v4), Reg(b, v4))
				return p
			},
			want: "undefined",
		},
		{
			name: "use after free",
			build: func() *Program {
				p := NewProgram()
				a := p.NewReg(tensor.Float64, 4)
				p.EmitIdentity(Reg(a, v4), Const(ConstInt(0)))
				p.EmitFree(Reg(a, v4))
				p.EmitUnary(OpSqrt, Reg(a, v4), Reg(a, v4))
				return p
			},
			want: "freed",
		},
		{
			name: "sync of undefined",
			build: func() *Program {
				p := NewProgram()
				a := p.NewReg(tensor.Float64, 4)
				p.EmitSync(Reg(a, v4))
				return p
			},
			want: "undefined",
		},
		{
			name: "view outside register",
			build: func() *Program {
				p := NewProgram()
				a := p.NewReg(tensor.Float64, 4)
				p.EmitIdentity(Reg(a, v8), Const(ConstInt(0)))
				return p
			},
			want: "outside buffer",
		},
		{
			name: "unknown register",
			build: func() *Program {
				p := NewProgram()
				p.EmitIdentity(Reg(RegID(3), v4), Const(ConstInt(0)))
				return p
			},
			want: "unknown register",
		},
		{
			name: "arity mismatch",
			build: func() *Program {
				p := NewProgram()
				a := p.NewReg(tensor.Float64, 4)
				p.EmitIdentity(Reg(a, v4), Const(ConstInt(0)))
				p.EmitUnary(OpAdd, Reg(a, v4), Reg(a, v4)) // ADD wants 2 inputs
				return p
			},
			want: "wants 2 inputs",
		},
		{
			name: "const result",
			build: func() *Program {
				p := NewProgram()
				p.Emit(Instruction{Op: OpIdentity, Out: Const(ConstInt(0)), In1: Const(ConstInt(0))})
				return p
			},
			want: "must be a register",
		},
		{
			name: "shape mismatch",
			build: func() *Program {
				p := NewProgram()
				a := p.NewReg(tensor.Float64, 8)
				b := p.NewReg(tensor.Float64, 8)
				p.EmitIdentity(Reg(a, v8), Const(ConstInt(0)))
				p.EmitIdentity(Reg(b, v4), Const(ConstInt(0)))
				p.EmitBinary(OpAdd, Reg(a, v8), Reg(a, v8), Reg(b, v4))
				return p
			},
			want: "not broadcastable",
		},
		{
			// The whole message, byte for byte: the input label is
			// formatted only on the failure path.
			name: "shape mismatch text",
			build: func() *Program {
				p := NewProgram()
				a := p.NewReg(tensor.Float64, 8)
				b := p.NewReg(tensor.Float64, 8)
				p.EmitIdentity(Reg(a, v8), Const(ConstInt(0)))
				p.EmitIdentity(Reg(b, v4), Const(ConstInt(0)))
				p.EmitBinary(OpMultiply, Reg(a, v4), Reg(b, v4), Reg(a, v8))
				return p
			},
			want: "bytecode: invalid program: instr 2 (BH_MULTIPLY a0 [0:4:1] a1 [0:4:1] a0 [0:8:1]): " +
				"input 2 shape (8) not broadcastable to result (4)",
		},
		{
			name: "bool result into float register",
			build: func() *Program {
				p := NewProgram()
				a := p.NewReg(tensor.Float64, 4)
				p.EmitIdentity(Reg(a, v4), Const(ConstInt(0)))
				p.EmitBinary(OpLess, Reg(a, v4), Reg(a, v4), Const(ConstInt(1)))
				return p
			},
			want: "must be bool",
		},
		{
			name: "reduce axis out of range",
			build: func() *Program {
				p := NewProgram()
				a := p.NewReg(tensor.Float64, 4)
				s := p.NewReg(tensor.Float64, 1)
				p.EmitIdentity(Reg(a, v4), Const(ConstInt(0)))
				p.EmitReduce(OpAddReduce, Reg(s, tensor.NewView(tensor.MustShape(1))), Reg(a, v4), 1)
				return p
			},
			want: "axis 1 out of range",
		},
		{
			name: "reduce wrong result shape",
			build: func() *Program {
				p := NewProgram()
				a := p.NewReg(tensor.Float64, 12)
				s := p.NewReg(tensor.Float64, 4)
				p.EmitIdentity(Reg(a, tensor.NewView(tensor.MustShape(3, 4))), Const(ConstInt(0)))
				p.EmitReduce(OpAddReduce, Reg(s, tensor.NewView(tensor.MustShape(4))), Reg(a, tensor.NewView(tensor.MustShape(3, 4))), 1)
				return p
			},
			want: "reduce result shape",
		},
		{
			name: "matmul shape chain",
			build: func() *Program {
				p := NewProgram()
				a := p.NewReg(tensor.Float64, 6)
				b := p.NewReg(tensor.Float64, 6)
				c := p.NewReg(tensor.Float64, 4)
				va := tensor.NewView(tensor.MustShape(2, 3))
				vb := tensor.NewView(tensor.MustShape(2, 3)) // should be (3, n)
				vc := tensor.NewView(tensor.MustShape(2, 2))
				p.EmitIdentity(Reg(a, va), Const(ConstInt(0)))
				p.EmitIdentity(Reg(b, vb), Const(ConstInt(0)))
				p.EmitBinary(OpMatmul, Reg(c, vc), Reg(a, va), Reg(b, vb))
				return p
			},
			want: "do not chain",
		},
		{
			name: "solve non-square",
			build: func() *Program {
				p := NewProgram()
				a := p.NewReg(tensor.Float64, 6)
				b := p.NewReg(tensor.Float64, 2)
				x := p.NewReg(tensor.Float64, 2)
				va := tensor.NewView(tensor.MustShape(2, 3))
				vb := tensor.NewView(tensor.MustShape(2))
				p.EmitIdentity(Reg(a, va), Const(ConstInt(0)))
				p.EmitIdentity(Reg(b, vb), Const(ConstInt(0)))
				p.EmitBinary(OpSolve, Reg(x, vb), Reg(a, va), Reg(b, vb))
				return p
			},
			want: "square",
		},
		{
			name: "sync with inputs",
			build: func() *Program {
				p := NewProgram()
				a := p.NewReg(tensor.Float64, 4)
				p.EmitIdentity(Reg(a, v4), Const(ConstInt(0)))
				p.Emit(Instruction{Op: OpSync, Out: Reg(a, v4), In1: Reg(a, v4)})
				return p
			},
			want: "takes no inputs",
		},
		{
			name: "random with register input",
			build: func() *Program {
				p := NewProgram()
				a := p.NewReg(tensor.Float64, 4)
				p.EmitIdentity(Reg(a, v4), Const(ConstInt(0)))
				p.EmitBinary(OpRandom, Reg(a, v4), Reg(a, v4), Const(ConstInt(0)))
				return p
			},
			want: "must be a constant",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.build().Validate()
			if err == nil {
				t.Fatal("Validate succeeded, want error")
			}
			if !errors.Is(err, ErrInvalid) {
				t.Errorf("error %v is not ErrInvalid", err)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestValidateAccepts(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{
			name: "listing 2",
			src:  listing2Source,
		},
		{
			name: "listing 5 power chain",
			src: `
.reg a0 float64 8
.reg a1 float64 8
BH_IDENTITY a0 2
BH_MULTIPLY a1 a0 a0
BH_MULTIPLY a1 a1 a1
BH_MULTIPLY a1 a1 a1
BH_MULTIPLY a1 a1 a0
BH_MULTIPLY a1 a1 a0
BH_SYNC a1
`,
		},
		{
			name: "broadcast row across matrix",
			src: `
.reg a0 float64 12
.reg a1 float64 4
BH_IDENTITY a0 [0:12:4][0:4:1] 0
BH_IDENTITY a1 [0:4:1] 1
BH_ADD a0 [0:12:4][0:4:1] a0 [0:12:4][0:4:1] a1 [0:3:0][0:4:1]
BH_SYNC a0 [0:12:4][0:4:1]
`,
		},
		{
			name: "full reduction to one element",
			src: `
.reg a0 float64 10
.reg a1 float64 1
BH_IDENTITY a0 1
BH_ADD_REDUCE a1 [0:1:1] a0 [0:10:1] axis=0
BH_SYNC a1
`,
		},
		{
			name: "free then redefine",
			src: `
.reg a0 float64 4
BH_IDENTITY a0 1
BH_FREE a0
BH_IDENTITY a0 2
BH_SYNC a0
`,
		},
		{
			name: "solve",
			src: `
.reg a0 float64 4
.reg a1 float64 2
.reg a2 float64 2
BH_IDENTITY a0 [0:4:2][0:2:1] 1
BH_IDENTITY a1 [0:2:1] 1
BH_SOLVE a2 [0:2:1] a0 [0:4:2][0:2:1] a1 [0:2:1]
BH_SYNC a2
`,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, err := Parse(tt.src)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(); err != nil {
				t.Errorf("Validate: %v", err)
			}
		})
	}
}
