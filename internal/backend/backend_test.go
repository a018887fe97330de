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
	e.Submit(pl, nil) // fails
	e.Submit(pl, nil) // skipped
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
		e.Submit(pl, nil)
	}
	if err := e.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after Wait, want 0", got)
	}
	e.Submit(pl, nil)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after Close, want 0", got)
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
	cfg := Config{VM: vm.Config{Fusion: true}}
	b := openTest(t, cfg)
	e := NewExecutor(b, 0, "")
	defer e.Close()
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
		e.Submit(res.Plan, res.Consts)
	}
	if err := e.Wait(); err != nil {
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
	ref := openTest(t, cfg)
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
