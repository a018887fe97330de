package vm_test

import (
	"testing"

	"bohrium/internal/backend"
	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

// Plans compiled by the VM are pipelined through backend.Executor, the
// one background executor. These tests pin the VM-visible side of that
// contract: Stats().Pipelined and the register file the plans write.

func openInProcess(t *testing.T) *backend.Backend {
	t.Helper()
	eng := vm.NewEngine(vm.EngineConfig{})
	b, err := backend.Open("inprocess", eng, backend.Config{VM: vm.Config{Fusion: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close(); eng.Close() })
	return b
}

// affineProg computes a1 = (a0 + c) * 2 over 8 elements.
func affineProg(c float64) *bytecode.Program {
	p := bytecode.NewProgram()
	a0 := p.NewReg(tensor.Float64, 8)
	a1 := p.NewReg(tensor.Float64, 8)
	v := tensor.NewView(tensor.MustShape(8))
	p.MarkInput(a0)
	p.EmitBinary(bytecode.OpAdd, bytecode.Reg(a1, v), bytecode.Reg(a0, v),
		bytecode.Const(bytecode.ConstFloat(c)))
	p.EmitBinary(bytecode.OpMultiply, bytecode.Reg(a1, v), bytecode.Reg(a1, v),
		bytecode.Const(bytecode.ConstFloat(2)))
	p.EmitSync(bytecode.Reg(a1, v))
	p.MarkOutput(a1)
	return p
}

// emptyMaxProg reduces an empty axis with MAX: it compiles, and fails at
// execution (empty MAX has no identity).
func emptyMaxProg() *bytecode.Program {
	p := bytecode.NewProgram()
	src := p.NewReg(tensor.Float64, 0)
	dst := p.NewReg(tensor.Float64, 1)
	vEmpty := tensor.NewView(tensor.MustShape(0))
	v1 := tensor.NewView(tensor.MustShape(1))
	p.EmitIdentity(bytecode.Reg(src, vEmpty), bytecode.Const(bytecode.ConstFloat(0)))
	p.EmitReduce(bytecode.OpMaximumReduce, bytecode.Reg(dst, v1), bytecode.Reg(src, vEmpty), 0)
	p.EmitSync(bytecode.Reg(dst, v1))
	p.MarkOutput(dst)
	return p
}

func bindInput(t *testing.T, b *backend.Backend, vals []float64) {
	t.Helper()
	tt, err := tensor.FromFloat64s(vals, tensor.MustShape(len(vals)))
	if err != nil {
		t.Fatal(err)
	}
	b.Bind(0, tt)
}

// TestExecutorRunsSubmittedPlans: plans submitted to the background
// executor execute against the backend's register file, Wait drains,
// and the Pipelined counter tracks them.
func TestExecutorRunsSubmittedPlans(t *testing.T) {
	b := openInProcess(t)
	e := backend.NewExecutor(b, 0, "")
	defer e.Close()

	bindInput(t, b, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	pl, err := b.Compile(affineProg(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e.Submit(pl, nil)
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	tt, ok := b.Tensor(1, tensor.NewView(tensor.MustShape(8)))
	if !ok {
		t.Fatal("register a1 has no buffer")
	}
	got := tt.Float64Slice()
	if got[0] != 4 || got[7] != 18 { // (x+1)*2, idempotent across submissions
		t.Errorf("executed values = %v", got)
	}
	if st := b.Stats(); st.Pipelined != 3 {
		t.Errorf("Pipelined = %d, want 3", st.Pipelined)
	}
}

// TestExecutorErrorPoisonsAndSkips: the first failing plan poisons the
// pipeline. A different, valid plan queued behind it is skipped, Wait
// returns the error, and the error stays sticky through further Waits
// and Close.
func TestExecutorErrorPoisonsAndSkips(t *testing.T) {
	b := openInProcess(t)
	e := backend.NewExecutor(b, 4, "")

	bad, err := b.Compile(emptyMaxProg())
	if err != nil {
		t.Fatal(err)
	}
	bindInput(t, b, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	good, err := b.Compile(affineProg(1))
	if err != nil {
		t.Fatal(err)
	}

	e.Submit(bad, nil)
	e.Submit(good, nil) // skipped
	werr := e.Wait()
	if werr == nil {
		t.Fatal("Wait returned nil for a failing plan")
	}
	if st := b.Stats(); st.Pipelined != 1 {
		t.Errorf("Pipelined = %d, want 1 (queued plan after the failure skipped)", st.Pipelined)
	}
	if again := e.Wait(); again != werr {
		t.Errorf("sticky error changed: %v then %v", werr, again)
	}
	if cerr := e.Close(); cerr != werr {
		t.Errorf("Close() = %v, want sticky %v", cerr, werr)
	}
}
