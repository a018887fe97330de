package backend

import (
	"math"
	"strings"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

func openTest(t *testing.T, cfg Config) *Backend {
	t.Helper()
	eng := vm.NewEngine(vm.EngineConfig{})
	b := New(eng, cfg)
	t.Cleanup(func() { b.Close(); eng.Close() })
	return b
}

func bindVec(t *testing.T, b *Backend, r bytecode.RegID, vals []float64) {
	t.Helper()
	tt, err := tensor.FromFloat64s(vals, tensor.MustShape(len(vals)))
	if err != nil {
		t.Fatal(err)
	}
	b.Bind(r, tt)
}

func regVals(t *testing.T, b *Backend, r bytecode.RegID, n int) []float64 {
	t.Helper()
	tt, ok := b.Tensor(r, tensor.NewView(tensor.MustShape(n)))
	if !ok {
		t.Fatalf("register %s has no buffer", r)
	}
	return tt.Float64Slice()
}

// TestOpenNames: Open accepts the empty name and "inprocess", the one
// engine, and names any other in its error.
func TestOpenNames(t *testing.T) {
	eng := vm.NewEngine(vm.EngineConfig{})
	defer eng.Close()
	if _, err := Open("gpu", eng, Config{}); err == nil || !strings.Contains(err.Error(), `unknown backend "gpu"`) {
		t.Fatalf("Open(gpu) = %v, want unknown-backend error", err)
	}
	for _, name := range []string{"", DefaultName} {
		b, err := Open(name, eng, Config{})
		if err != nil {
			t.Fatalf("Open(%q): %v", name, err)
		}
		b.Close()
	}
}

// chainProg builds an elementwise chain closed by a reduction:
// a1 = sqrt(a0*a0 + c); a2 = a1*a0; a3 = sum(a2); free a1.
func chainProg(n int, c float64) *bytecode.Program {
	p := bytecode.NewProgram()
	a0 := p.NewReg(tensor.Float64, n)
	a1 := p.NewReg(tensor.Float64, n)
	a2 := p.NewReg(tensor.Float64, n)
	a3 := p.NewReg(tensor.Float64, 1)
	v := tensor.NewView(tensor.MustShape(n))
	v1 := tensor.NewView(tensor.MustShape(1))
	p.MarkInput(a0)
	p.EmitBinary(bytecode.OpMultiply, bytecode.Reg(a1, v), bytecode.Reg(a0, v), bytecode.Reg(a0, v))
	p.EmitBinary(bytecode.OpAdd, bytecode.Reg(a1, v), bytecode.Reg(a1, v), bytecode.Const(bytecode.ConstFloat(c)))
	p.EmitUnary(bytecode.OpSqrt, bytecode.Reg(a1, v), bytecode.Reg(a1, v))
	p.EmitBinary(bytecode.OpMultiply, bytecode.Reg(a2, v), bytecode.Reg(a1, v), bytecode.Reg(a0, v))
	p.EmitReduce(bytecode.OpAddReduce, bytecode.Reg(a3, v1), bytecode.Reg(a2, v), 0)
	p.EmitFree(bytecode.Reg(a1, v))
	p.MarkOutput(a2)
	p.MarkOutput(a3)
	return p
}

func irregularVals(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Sin(float64(i)*0.7)*3.25 + 0.125*float64(i%17)
	}
	return vals
}

// runChain executes chainProg(n, 1.5) fused on a fresh backend over
// irregularVals and returns a2 and the sum a3.
func runChain(t *testing.T, n int) ([]float64, []float64) {
	t.Helper()
	b := openTest(t, Config{VM: vm.Config{Fusion: true}})
	pl, err := b.Compile(chainProg(n, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	bindVec(t, b, 0, irregularVals(n))
	if err := b.Execute(pl); err != nil {
		t.Fatal(err)
	}
	return regVals(t, b, 2, n), regVals(t, b, 3, 1)
}

// solveProg wires BH_SOLVE over the given 2x2 system.
func solveProg() *bytecode.Program {
	p := bytecode.NewProgram()
	a := p.NewReg(tensor.Float64, 4)
	bb := p.NewReg(tensor.Float64, 2)
	x := p.NewReg(tensor.Float64, 2)
	va := tensor.NewView(tensor.MustShape(2, 2))
	vb := tensor.NewView(tensor.MustShape(2))
	p.MarkInput(a)
	p.MarkInput(bb)
	p.EmitBinary(bytecode.OpSolve, bytecode.Reg(x, vb), bytecode.Reg(a, va), bytecode.Reg(bb, vb))
	p.MarkOutput(x)
	return p
}

// TestDifferentialErrorText pins that fused execution fails with the
// error unfused execution reports, naming the failing cluster first, for
// an unbound input register and for a singular solve.
func TestDifferentialErrorText(t *testing.T) {
	var msgs [2][]string // fused, unfused: unbound, solve
	for i, fusion := range []bool{true, false} {
		b := openTest(t, Config{VM: vm.Config{Fusion: fusion}})
		pl, err := b.Compile(solveProg())
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Execute(pl); err == nil {
			t.Fatalf("fusion=%v: unbound inputs executed", fusion)
		} else {
			msgs[i] = append(msgs[i], err.Error())
		}
		at, _ := tensor.FromFloat64s([]float64{1, 2, 2, 4}, tensor.MustShape(2, 2)) // singular
		bt, _ := tensor.FromFloat64s([]float64{1, 1}, tensor.MustShape(2))
		b.Bind(0, at)
		b.Bind(1, bt)
		if err := b.Execute(pl); err == nil {
			t.Fatalf("fusion=%v: singular solve succeeded", fusion)
		} else {
			msgs[i] = append(msgs[i], err.Error())
		}
	}
	for k, fused := range msgs[0] {
		if strings.Replace(fused, "cluster [0,1): ", "", 1) != msgs[1][k] {
			t.Errorf("errors differ:\n  fused:   %s\n  unfused: %s", fused, msgs[1][k])
		}
	}
}
