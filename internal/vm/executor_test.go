package vm_test

import (
	"context"
	"testing"

	"bohrium/internal/backend"
	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

// Plans compiled by the VM are pipelined through the async backend
// session. This test pins the VM-visible side of that contract:
// Stats().Pipelined and the register file the plans write.

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

// TestExecutorRunsSubmittedPlans: plans submitted to an async backend
// execute against its register file, Wait drains, and the Pipelined
// counter tracks them.
func TestExecutorRunsSubmittedPlans(t *testing.T) {
	ctx := context.Background()
	eng := vm.NewEngine(vm.EngineConfig{})
	b, err := backend.Open("inprocess", eng, backend.Config{VM: vm.Config{Fusion: true}, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close(); eng.Close() })

	in, err := tensor.FromFloat64s([]float64{1, 2, 3, 4, 5, 6, 7, 8}, tensor.MustShape(8))
	if err != nil {
		t.Fatal(err)
	}
	b.Bind(0, in)
	pl, err := b.Compile(affineProg(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := b.Submit(ctx, pl, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Wait(ctx); err != nil {
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
