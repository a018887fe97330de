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

// TestExecutorSticky: the executor's first execution error is sticky: the
// queued plan behind it is skipped, and every Wait and Close report it.
func TestExecutorSticky(t *testing.T) {
	b := openTest(t, Config{})
	pl, err := b.Compile(solveProg())
	if err != nil {
		t.Fatal(err)
	}
	at, _ := tensor.FromFloat64s([]float64{1, 2, 2, 4}, tensor.MustShape(2, 2)) // singular
	bt, _ := tensor.FromFloat64s([]float64{1, 1}, tensor.MustShape(2))
	b.Bind(0, at)
	b.Bind(1, bt)

	e := NewExecutor(b, 2, "")
	e.Submit(pl) // fails
	e.Submit(pl) // skipped
	err = e.Wait()
	if err == nil {
		t.Fatal("pipeline error lost")
	}
	if again := e.Wait(); again != err {
		t.Fatalf("sticky error changed: %v then %v", err, again)
	}
	if st := b.Stats(); st.Pipelined != 1 {
		t.Errorf("Pipelined = %d, want 1 (second plan skipped)", st.Pipelined)
	}
	if cerr := e.Close(); cerr != err {
		t.Fatalf("Close() = %v, want sticky %v", cerr, err)
	}
}

// TestExecutorPending: the pending counter counts submitted-not-finished
// plans and settles to zero at every recorder synchronization point —
// the invariant the bhd daemon's max-queued-batches quota meters.
func TestExecutorPending(t *testing.T) {
	b := openTest(t, Config{})
	prog := chainProg(64, 3)
	in, _ := tensor.FromFloat64s(irregularVals(64), tensor.MustShape(64))
	b.Bind(0, in)
	pl, err := b.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(b, 4, "")
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() = %d before any submit, want 0", got)
	}
	for i := 0; i < 8; i++ {
		e.Submit(pl)
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after Wait, want 0", got)
	}
	e.Submit(pl)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after Close, want 0", got)
	}
}

// TestExecutorQueuedPlansKeepOwnConstants: two structurally identical
// batches with different constant vectors, queued back to back, each
// execute with their own values. A parametric cache hit under new
// constants is a patched clone (the cached plan is immutable), so the
// plan already in the executor queue is never retouched.
func TestExecutorQueuedPlansKeepOwnConstants(t *testing.T) {
	b := openTest(t, Config{VM: vm.Config{Fusion: true}})
	e := NewExecutor(b, 0, "")
	defer e.Close()
	prog := chainProg(64, 1)
	pl, err := b.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	b.InsertPlan(prog.Fingerprint(), prog.Constants(), true, pl, nil)
	bindVec(t, b, 0, irregularVals(64))

	var plans []Plan
	for _, c := range []float64{1, 10} {
		batch := chainProg(64, c)
		plan, _, ok := b.LookupPlan(batch.Fingerprint(), batch.Constants(), nil)
		if !ok {
			t.Fatalf("c=%v: lookup missed", c)
		}
		if cs := plan.Program().Constants(); cs[0].Float() != c {
			t.Fatalf("c=%v: returned plan carries %v", c, cs)
		}
		plans = append(plans, plan)
		e.Submit(plan)
	}
	if plans[0] == plans[1] {
		t.Fatal("different constant vectors returned the same plan object")
	}
	// The first queued plan still holds its own vector after the second
	// lookup rebound the cache entry.
	if cs := plans[0].Program().Constants(); cs[0].Float() != 1 {
		t.Errorf("queued plan was retouched: %v", cs)
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := regVals(t, b, 3, 1)[0], syncSum(t, 10); got != want {
		t.Errorf("last submission (c=10) left a3 = %v, want %v", got, want)
	}
}

// syncSum runs chainProg(64, c) synchronously on a fresh backend and returns its reduction a3.
func syncSum(t *testing.T, c float64) float64 {
	t.Helper()
	b := openTest(t, Config{})
	pl, err := b.Compile(chainProg(64, c))
	if err != nil {
		t.Fatal(err)
	}
	bindVec(t, b, 0, irregularVals(64))
	if err := b.Execute(pl); err != nil {
		t.Fatal(err)
	}
	return regVals(t, b, 3, 1)[0]
}

// TestExecutorCloseIdempotent: Close twice is safe and keeps returning
// the same (nil) error.
func TestExecutorCloseIdempotent(t *testing.T) {
	b := openTest(t, Config{})
	e := NewExecutor(b, 0, "")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
