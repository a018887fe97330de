package backend

import (
	"context"
	"math"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

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

// TestExecutorSticky: the async pipeline's first execution error is
// sticky: the queued plan behind it is skipped, and every Wait and Err
// report it.
func TestExecutorSticky(t *testing.T) {
	ctx := context.Background()
	b := openTest(t, Config{Async: true, AsyncDepth: 2})
	pl, err := b.Compile(solveProg())
	if err != nil {
		t.Fatal(err)
	}
	at, _ := tensor.FromFloat64s([]float64{1, 2, 2, 4}, tensor.MustShape(2, 2)) // singular
	bt, _ := tensor.FromFloat64s([]float64{1, 1}, tensor.MustShape(2))
	b.Bind(0, at)
	b.Bind(1, bt)

	if err := b.Submit(ctx, pl, nil); err != nil { // fails at execution
		t.Fatal(err)
	}
	if err := b.Submit(ctx, pl, nil); err != nil { // skipped
		t.Fatal(err)
	}
	err = b.Wait(ctx)
	if err == nil {
		t.Fatal("pipeline error lost")
	}
	if again := b.Wait(ctx); again != err {
		t.Fatalf("sticky error changed: %v then %v", err, again)
	}
	if st := b.Stats(); st.Pipelined != 1 {
		t.Errorf("Pipelined = %d, want 1 (second plan skipped)", st.Pipelined)
	}
	if eerr := b.Err(); eerr != err {
		t.Fatalf("Err() = %v, want sticky %v", eerr, err)
	}
}

// TestExecutorPending: queued plans execute against the backend's
// register file, the Pipelined counter tracks them, and the pending
// counter counts submitted-not-finished plans and settles to zero at
// Wait — the invariant the bhd daemon's max-queued-batches quota meters.
func TestExecutorPending(t *testing.T) {
	ctx := context.Background()
	b := openTest(t, Config{VM: vm.Config{Fusion: true}, Async: true, AsyncDepth: 2})
	bindVec(t, b, 0, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	pl, err := b.Compile(affineProg(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Pending(); got != 0 {
		t.Fatalf("Pending() = %d before any submit, want 0", got)
	}
	for i := 0; i < 3; i++ { // three through a depth-2 queue
		if err := b.Submit(ctx, pl, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := b.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after Wait, want 0", got)
	}
	got := regVals(t, b, 1, 8)
	if got[0] != 4 || got[7] != 18 { // (x+1)*2, idempotent across submissions
		t.Errorf("executed values = %v", got)
	}
	if st := b.Stats(); st.Pipelined != 3 {
		t.Errorf("Pipelined = %d, want 3", st.Pipelined)
	}
}

// TestExecutorCloseDrains: Close on an async session with plans still
// queued runs every one of them before it releases the machine.
func TestExecutorCloseDrains(t *testing.T) {
	eng := vm.NewEngine(vm.EngineConfig{})
	defer eng.Close()
	b := New(eng, Config{Async: true, AsyncDepth: 4})
	bindVec(t, b, 0, irregularVals(64))
	pl, err := b.Compile(chainProg(64, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := b.Submit(context.Background(), pl, nil); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	if got := b.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after Close, want 0", got)
	}
	if st := b.Stats(); st.Pipelined != 4 {
		t.Errorf("Pipelined = %d after Close, want 4", st.Pipelined)
	}
}

// TestExecutorQueuedPlansKeepOwnConstants: structurally identical batches
// with different constant vectors, resolved and queued back to back, each
// execute under their own values. Every resolve returns the one cached
// plan; a parametric hit under another vector than the plan's carries its
// own copy of it, so the next Key, which reuses the resolver's buffer,
// never retouches what the queue holds. The queued run is bit for bit the
// batches compiled afresh and executed one after another.
func TestExecutorQueuedPlansKeepOwnConstants(t *testing.T) {
	vcfg := vm.Config{Fusion: true}
	b := openTest(t, Config{VM: vcfg, Async: true})
	r := NewResolver(b, Signature{Scope: "test", Fusion: true}, nil, nil)
	// a0 = (a0 * c + c) * c, in place: each run's result feeds the next.
	scale := func(c float64) *bytecode.Program {
		p := bytecode.NewProgram()
		a0 := p.NewReg(tensor.Float64, 64)
		v, k := tensor.NewView(tensor.MustShape(64)), bytecode.Const(bytecode.ConstFloat(c))
		p.MarkInput(a0)
		p.EmitBinary(bytecode.OpMultiply, bytecode.Reg(a0, v), bytecode.Reg(a0, v), k)
		p.EmitBinary(bytecode.OpAdd, bytecode.Reg(a0, v), bytecode.Reg(a0, v), k)
		p.EmitBinary(bytecode.OpMultiply, bytecode.Reg(a0, v), bytecode.Reg(a0, v), k)
		p.MarkOutput(a0)
		return p
	}
	cs := []float64{1, 10, 1, 0.375, 10}
	bindVec(t, b, 0, irregularVals(64))
	var plan Plan
	var queued []Resolution
	for i, c := range cs {
		batch := scale(c)
		res, err := r.Resolve(batch, r.Key(batch))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			plan = res.Plan
		}
		if res.Plan != plan {
			t.Fatalf("c=%v: resolved another plan than the cached one", c)
		}
		if own := c == cs[0]; (res.Consts == nil) != own {
			t.Fatalf("c=%v: Consts = %v, want nil exactly under the plan's own vector", c, res.Consts)
		}
		queued = append(queued, res)
		if err := b.Submit(context.Background(), res.Plan, res.Consts); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, res := range queued {
		if res.Consts != nil && res.Consts[0].Float() != cs[i] {
			t.Errorf("resolution %d: its vector became %v", i, res.Consts)
		}
	}
	if pc := plan.Constants(); pc[0].Float() != cs[0] {
		t.Errorf("the cached plan's own vector became %v", pc)
	}
	ref := openTest(t, Config{VM: vcfg})
	bindVec(t, ref, 0, irregularVals(64))
	for _, c := range cs {
		pl, err := ref.Compile(scale(c))
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Execute(pl); err != nil {
			t.Fatal(err)
		}
	}
	got, want := regVals(t, b, 0, 64), regVals(t, ref, 0, 64)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("a0[%d] = %v after the queued batches, want %v", i, got[i], want[i])
		}
	}
	if st := b.Stats(); st.PlanMisses != 1 || st.PlanHits != len(cs)-1 {
		t.Errorf("%d misses and %d hits, want 1 and %d", st.PlanMisses, st.PlanHits, len(cs)-1)
	}
}
