package backend

import (
	"math"
	"strings"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
	"bohrium/internal/vm"
)

func openTest(t *testing.T, name string, cfg Config) (Backend, *vm.Engine) {
	t.Helper()
	eng := vm.NewEngine(vm.EngineConfig{})
	b, err := Open(name, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close(); eng.Close() })
	return b, eng
}

func bindVec(t *testing.T, b Backend, r bytecode.RegID, vals []float64) {
	t.Helper()
	tt, err := tensor.FromFloat64s(vals, tensor.MustShape(len(vals)))
	if err != nil {
		t.Fatal(err)
	}
	b.Bind(r, tt)
}

func regVals(t *testing.T, b Backend, r bytecode.RegID, n int) []float64 {
	t.Helper()
	tt, ok := b.Tensor(r, tensor.NewView(tensor.MustShape(n)))
	if !ok {
		t.Fatalf("register %s has no buffer", r)
	}
	return tt.Float64Slice()
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 2 || names[0] != "inprocess" || names[1] != "outofcore" {
		t.Fatalf("Names() = %v, want [inprocess outofcore]", names)
	}
	eng := vm.NewEngine(vm.EngineConfig{})
	defer eng.Close()
	if _, err := Open("gpu", eng, Config{}); err == nil || !strings.Contains(err.Error(), `unknown backend "gpu"`) {
		t.Fatalf("Open(gpu) = %v, want unknown-backend error", err)
	}
	b, err := Open("", eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Name() != DefaultName {
		t.Fatalf("Open(\"\") opened %q, want %q", b.Name(), DefaultName)
	}
	if b.Capabilities().Chunked {
		t.Error("inprocess backend reports Chunked")
	}
}

// chainProg builds a program whose elementwise chain is chunkable and
// whose reduction is a barrier: a1 = sqrt(a0*a0 + c); a2 = a1*a0;
// a3 = sum(a2); free a1. a1 is read only inside the segment and freed
// after it, so the out-of-core backend treats it as a segment local.
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

func runChain(t *testing.T, name string, cfg Config, n int, fusion bool) ([]float64, []float64, vm.Stats) {
	t.Helper()
	cfg.VM.Fusion = fusion
	b, _ := openTest(t, name, cfg)
	prog := chainProg(n, 1.5)
	pl, err := b.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	bindVec(t, b, 0, irregularVals(n))
	if err := b.Execute(pl); err != nil {
		t.Fatal(err)
	}
	return regVals(t, b, 2, n), regVals(t, b, 3, 1), b.Stats()
}

// TestDifferentialChunked pins out-of-core ≡ in-process bit-for-bit over
// an array far larger than the chunk budget, fused and unfused, including
// a tail chunk that does not divide evenly.
func TestDifferentialChunked(t *testing.T) {
	const chunkBytes = 4096 // 512 float64 per tile
	for _, n := range []int{10000, 1000, 512, 511, 3} {
		for _, fusion := range []bool{true, false} {
			ref2, ref3, _ := runChain(t, "inprocess", Config{}, n, fusion)
			got2, got3, st := runChain(t, "outofcore", Config{ChunkBytes: chunkBytes}, n, fusion)
			for i := range ref2 {
				if math.Float64bits(ref2[i]) != math.Float64bits(got2[i]) {
					t.Fatalf("n=%d fusion=%v: a2[%d] = %x, want %x", n, fusion, i, got2[i], ref2[i])
				}
			}
			if math.Float64bits(ref3[0]) != math.Float64bits(got3[0]) {
				t.Fatalf("n=%d fusion=%v: sum = %x, want %x", n, fusion, got3[0], ref3[0])
			}
			wantChunks := (n + 511) / 512
			if chunkBytes/8 > n {
				wantChunks = 1
			}
			if st.Chunks != wantChunks {
				t.Errorf("n=%d fusion=%v: Chunks = %d, want %d", n, fusion, st.Chunks, wantChunks)
			}
		}
	}
}

// TestOutOfCoreLocalNeverMaterialized: a segment temporary that is freed
// after its last in-segment read never gets a full-size buffer — the
// memory the backend exists to save. (The front end cannot observe the
// difference: its handle died with the BH_FREE.)
func TestOutOfCoreLocalNeverMaterialized(t *testing.T) {
	b, _ := openTest(t, "outofcore", Config{ChunkBytes: 4096})
	prog := chainProg(10000, 1.5)
	pl, err := b.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	bindVec(t, b, 0, irregularVals(10000))
	if err := b.Execute(pl); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Tensor(1, tensor.NewView(tensor.MustShape(10000))); ok {
		t.Error("segment local a1 was materialized at full size")
	}
	if _, ok := b.Tensor(2, tensor.NewView(tensor.MustShape(10000))); !ok {
		t.Error("live-out a2 was not materialized")
	}
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

// TestDifferentialErrorText pins that both backends fail with the
// character-identical error for a singular solve (a barrier executed via
// ExecOne) and for an unbound input register, fused and unfused.
func TestDifferentialErrorText(t *testing.T) {
	for _, fusion := range []bool{true, false} {
		var msgs [2]struct{ solve, unbound string }
		for i, name := range []string{"inprocess", "outofcore"} {
			b, _ := openTest(t, name, Config{VM: vm.Config{Fusion: fusion}, ChunkBytes: 64})
			pl, err := b.Compile(solveProg())
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Execute(pl); err == nil {
				t.Fatalf("%s: unbound inputs executed", name)
			} else {
				msgs[i].unbound = err.Error()
			}
			at, _ := tensor.FromFloat64s([]float64{1, 2, 2, 4}, tensor.MustShape(2, 2)) // singular
			bt, _ := tensor.FromFloat64s([]float64{1, 1}, tensor.MustShape(2))
			b.Bind(0, at)
			b.Bind(1, bt)
			if err := b.Execute(pl); err == nil {
				t.Fatalf("%s: singular solve succeeded", name)
			} else {
				msgs[i].solve = err.Error()
			}
		}
		if msgs[0].solve != msgs[1].solve {
			t.Errorf("fusion=%v: solve errors differ:\n  inprocess: %s\n  outofcore: %s",
				fusion, msgs[0].solve, msgs[1].solve)
		}
		if msgs[0].unbound != msgs[1].unbound {
			t.Errorf("fusion=%v: unbound errors differ:\n  inprocess: %s\n  outofcore: %s",
				fusion, msgs[0].unbound, msgs[1].unbound)
		}
	}
}

// TestPlanCacheScoping: two backends sharing one engine never serve each
// other's plans — the scoped keys keep the shared cache partitioned.
func TestPlanCacheScoping(t *testing.T) {
	eng := vm.NewEngine(vm.EngineConfig{})
	defer eng.Close()
	ip, err := Open("inprocess", eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ip.Close()
	ooc, err := Open("outofcore", eng, Config{ChunkBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer ooc.Close()

	prog := chainProg(64, 1.5)
	fp := prog.Fingerprint()
	consts := prog.Constants()
	pl, err := ip.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	ip.InsertPlan(fp, consts, true, pl, nil)
	if _, _, ok := ooc.LookupPlan(fp, consts, nil); ok {
		t.Fatal("outofcore hit an inprocess-compiled plan")
	}
	if _, _, ok := ip.LookupPlan(fp, consts, nil); !ok {
		t.Fatal("inprocess missed its own plan")
	}

	opl, err := ooc.Compile(chainProg(64, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	ooc.InsertPlan(fp, consts, true, opl, nil)
	got, _, ok := ooc.LookupPlan(fp, consts, nil)
	if !ok {
		t.Fatal("outofcore missed its own plan")
	}
	if _, isOoc := got.(*oocPlan); !isOoc {
		t.Fatalf("outofcore lookup returned %T", got)
	}
	// Out-of-core plans are constant-exact: a parametric-style lookup
	// under different constants must miss, not rebind.
	if _, _, ok := ooc.LookupPlan(fp, chainProg(64, 99).Constants(), nil); ok {
		t.Fatal("constant-exact outofcore plan hit under different constants")
	}
}

// TestExecutorSticky: the executor's first execution error is sticky: the
// queued plan behind it is skipped, and every Wait and Close report it.
func TestExecutorSticky(t *testing.T) {
	b, _ := openTest(t, "outofcore", Config{ChunkBytes: 64})
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
	b, _ := openTest(t, "inprocess", Config{})
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
	b, _ := openTest(t, "inprocess", Config{VM: vm.Config{Fusion: true}})
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

// syncSum runs chainProg(64, c) synchronously on a fresh in-process
// backend and returns its reduction a3.
func syncSum(t *testing.T, c float64) float64 {
	t.Helper()
	b, _ := openTest(t, "inprocess", Config{})
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
	b, _ := openTest(t, "inprocess", Config{})
	e := NewExecutor(b, 0, "")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
