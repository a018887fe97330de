package vm

import (
	"errors"
	"slices"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// planTestProg builds "a1 = (a0 + c) * 2; sync a1" with a0 bound by the
// caller — a fusible two-step cluster.
func planTestProg(c float64) *bytecode.Program {
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

func bindVec(t *testing.T, m *Machine, r bytecode.RegID, vals []float64) {
	t.Helper()
	tt, err := tensor.FromFloat64s(vals, tensor.MustShape(len(vals)))
	if err != nil {
		t.Fatal(err)
	}
	m.Bind(r, tt)
}

func regVals(t *testing.T, m *Machine, r bytecode.RegID, n int) []float64 {
	t.Helper()
	tt, ok := m.Tensor(r, tensor.NewView(tensor.MustShape(n)))
	if !ok {
		t.Fatalf("register %s has no buffer", r)
	}
	return tt.Float64Slice()
}

// TestPlanExecuteRebinds compiles once and executes twice with different
// input bindings: the second run must see the new buffer without any
// recompilation.
func TestPlanExecuteRebinds(t *testing.T) {
	m := New(Config{Fusion: true})
	defer m.Close()
	prog := planTestProg(1)
	pl, err := m.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	bindVec(t, m, 0, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	if err := pl.Execute(m, nil); err != nil {
		t.Fatal(err)
	}
	got := regVals(t, m, 1, 8)
	if got[0] != 4 || got[7] != 18 {
		t.Errorf("first run: %v", got)
	}
	bindVec(t, m, 0, []float64{10, 10, 10, 10, 10, 10, 10, 10})
	if err := pl.Execute(m, nil); err != nil {
		t.Fatal(err)
	}
	got = regVals(t, m, 1, 8)
	for i, v := range got {
		if v != 22 {
			t.Fatalf("rebound run element %d = %v, want 22", i, v)
		}
	}
}

// TestPlanWithConstantsEpilogue verifies a plan runs under new immediates,
// including through a fused reduction epilogue, bit for bit as a fresh
// compile under them, and under its own again afterwards.
func TestPlanWithConstantsEpilogue(t *testing.T) {
	m := New(Config{Fusion: true})
	defer m.Close()
	p := bytecode.NewProgram()
	a0 := p.NewReg(tensor.Float64, 8)
	a1 := p.NewReg(tensor.Float64, 8)
	out := p.NewReg(tensor.Float64, 1)
	v := tensor.NewView(tensor.MustShape(8))
	v1 := tensor.NewView(tensor.MustShape(1))
	p.MarkInput(a0)
	p.EmitBinary(bytecode.OpMultiply, bytecode.Reg(a1, v), bytecode.Reg(a0, v),
		bytecode.Const(bytecode.ConstFloat(3)))
	p.EmitReduce(bytecode.OpAddReduce, bytecode.Reg(out, v1), bytecode.Reg(a1, v), 0)
	p.EmitFree(bytecode.Reg(a1, v))
	p.EmitSync(bytecode.Reg(out, v1))
	p.MarkOutput(out)

	pl, err := m.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	ones := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	bindVec(t, m, 0, ones)
	if err := pl.Execute(m, nil); err != nil {
		t.Fatal(err)
	}
	if got := regVals(t, m, 2, 1)[0]; got != 24 {
		t.Fatalf("sum(1*3) over 8 = %v, want 24", got)
	}
	five := []bytecode.Constant{bytecode.ConstFloat(5)}
	fresh, err := m.Compile(withConstants(p, five))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pl     *Plan
		consts []bytecode.Constant
		want   float64
	}{{pl, five, 40}, {fresh, nil, 40}, {pl, nil, 24}} {
		bindVec(t, m, 0, ones)
		if err := tc.pl.Execute(m, tc.consts); err != nil {
			t.Fatal(err)
		}
		if got := regVals(t, m, 2, 1)[0]; got != tc.want {
			t.Fatalf("sum over 8 = %v, want %v", got, tc.want)
		}
	}
}

func fpOf(c float64) bytecode.Fingerprint { return planTestProg(c).Fingerprint() }

// TestPlanCacheBakedMatching: non-parametric entries hit only on their
// exact constant vector.
func TestPlanCacheBakedMatching(t *testing.T) {
	m := New(Config{Fusion: true})
	defer m.Close()
	prog := planTestProg(1)
	pl, err := m.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	fp := prog.Fingerprint()
	m.InsertPlan(fp, prog.Constants(), false, pl, "meta")
	if _, meta, ok := m.LookupPlan(fp, prog.Constants(), nil); !ok || meta != "meta" {
		t.Errorf("exact-constant lookup missed (ok=%v meta=%v)", ok, meta)
	}
	other := planTestProg(9).Constants()
	if _, _, ok := m.LookupPlan(fp, other, nil); ok {
		t.Error("baked entry hit with different constants")
	}
	st := m.Stats()
	if st.PlanHits != 1 || st.PlanMisses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", st.PlanHits, st.PlanMisses)
	}
}

// TestPlanCacheParametricMatching: parametric entries hit on any constant
// vector of their dtypes with the stored plan itself, untouched; a vector
// of other dtypes misses.
func TestPlanCacheParametricMatching(t *testing.T) {
	m := New(Config{Fusion: true})
	defer m.Close()
	prog := planTestProg(1)
	pl, err := m.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	fp := prog.Fingerprint()
	m.InsertPlan(fp, prog.Constants(), true, pl, nil)
	got, _, ok := m.LookupPlan(fp, planTestProg(7).Constants(), nil)
	if !ok || got != pl {
		t.Fatalf("parametric lookup: ok=%v, same plan=%v", ok, got == pl)
	}
	if cs := got.Constants(); !slices.EqualFunc(cs, prog.Constants(), bytecode.Constant.Equal) {
		t.Errorf("the cached plan's vector changed to %v", cs)
	}
	if _, _, ok := m.LookupPlan(fp, []bytecode.Constant{bytecode.ConstInt(7), bytecode.ConstFloat(2)}, nil); ok {
		t.Error("a vector of other dtypes hit")
	}
}

// TestPlanExecuteRejectsMismatchedConstants: a vector the plan's constants
// do not fit — too few, too many, another dtype — is an execution error,
// not a run under misplaced values.
func TestPlanExecuteRejectsMismatchedConstants(t *testing.T) {
	m := New(Config{Fusion: true})
	defer m.Close()
	pl, err := m.Compile(planTestProg(1))
	if err != nil {
		t.Fatal(err)
	}
	bindVec(t, m, 0, []float64{1, 2, 3, 4, 5, 6, 7, 8})
	c := bytecode.ConstFloat(3)
	for _, consts := range [][]bytecode.Constant{{}, {c}, {c, c, c}, {c, bytecode.ConstInt(3)}} {
		if err := pl.Execute(m, consts); !errors.Is(err, ErrExec) {
			t.Errorf("constants %v: err = %v, want an ErrExec", consts, err)
		}
	}
	if err := pl.Execute(m, []bytecode.Constant{c, c}); err != nil {
		t.Fatal(err)
	}
	if got := regVals(t, m, 1, 8); got[0] != 12 {
		t.Errorf("(1 + 3) * 3 = %v", got[0])
	}
}

// TestPlanCacheAcceptFilter: the caller's metadata vet can reject a
// candidate, turning the lookup into a miss.
func TestPlanCacheAcceptFilter(t *testing.T) {
	m := New(Config{Fusion: true})
	defer m.Close()
	prog := planTestProg(1)
	pl, _ := m.Compile(prog)
	fp := prog.Fingerprint()
	m.InsertPlan(fp, prog.Constants(), false, pl, "stale")
	if _, _, ok := m.LookupPlan(fp, prog.Constants(), func(meta any) bool { return meta != "stale" }); ok {
		t.Error("rejected entry still hit")
	}
	if st := m.Stats(); st.PlanMisses != 1 {
		t.Errorf("misses=%d, want 1", st.PlanMisses)
	}
}

// TestPlanCacheLRUEviction: capacity 2, least-recently-used goes first,
// and a hit refreshes recency.
func TestPlanCacheLRUEviction(t *testing.T) {
	m := New(Config{Fusion: true, PlanCacheSize: 2})
	defer m.Close()
	// Distinct structures via distinct vector lengths.
	sized := func(n int) *bytecode.Program {
		p := bytecode.NewProgram()
		a0 := p.NewReg(tensor.Float64, n)
		v := tensor.NewView(tensor.MustShape(n))
		p.EmitIdentity(bytecode.Reg(a0, v), bytecode.Const(bytecode.ConstFloat(1)))
		p.EmitSync(bytecode.Reg(a0, v))
		p.MarkOutput(a0)
		return p
	}
	insert := func(n int) (bytecode.Fingerprint, []bytecode.Constant) {
		prog := sized(n)
		pl, err := m.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		fp := prog.Fingerprint()
		m.InsertPlan(fp, prog.Constants(), true, pl, nil)
		return fp, prog.Constants()
	}
	fpA, csA := insert(4)
	fpB, csB := insert(5)
	if _, _, ok := m.LookupPlan(fpA, csA, nil); !ok { // A is now most recent
		t.Fatal("A missing before eviction")
	}
	fpC, csC := insert(6) // evicts B, the least recently used
	if _, _, ok := m.LookupPlan(fpB, csB, nil); ok {
		t.Error("LRU entry B survived eviction")
	}
	if _, _, ok := m.LookupPlan(fpA, csA, nil); !ok {
		t.Error("recently used entry A was evicted")
	}
	if _, _, ok := m.LookupPlan(fpC, csC, nil); !ok {
		t.Error("newest entry C was evicted")
	}
	st := m.Stats()
	if st.PlanEvictions != 1 {
		t.Errorf("evictions=%d, want 1", st.PlanEvictions)
	}
	if m.PlanCacheLen() != 2 {
		t.Errorf("cache len=%d, want 2", m.PlanCacheLen())
	}
}

// TestPlanCacheDisabled: negative capacity disables the cache — lookups
// miss without counting, inserts are dropped.
func TestPlanCacheDisabled(t *testing.T) {
	m := New(Config{Fusion: true, PlanCacheSize: -1})
	defer m.Close()
	if m.PlanCacheEnabled() {
		t.Fatal("cache enabled despite negative capacity")
	}
	prog := planTestProg(1)
	pl, _ := m.Compile(prog)
	fp := prog.Fingerprint()
	m.InsertPlan(fp, nil, true, pl, nil)
	if _, _, ok := m.LookupPlan(fp, nil, nil); ok {
		t.Error("disabled cache produced a hit")
	}
	st := m.Stats()
	if st.PlanHits != 0 || st.PlanMisses != 0 || st.PlanEvictions != 0 {
		t.Errorf("disabled cache counted: %+v", st)
	}
}

// TestLookupBakedExactVectorOnly: baked (non-parametric) entries match
// only their exact constant vector, and an exact-vector hit returns the
// stored plan itself — no clone, no patch.
func TestLookupBakedExactVectorOnly(t *testing.T) {
	m := New(Config{})
	defer m.Close()
	prog := planTestProg(3)
	pl, err := m.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m.InsertPlan(prog.Fingerprint(), prog.Constants(), false, pl, nil)

	got, _, ok := m.LookupPlan(prog.Fingerprint(), prog.Constants(), nil)
	if !ok || got != pl {
		t.Errorf("exact-vector baked lookup: ok=%v samePlan=%v, want hit on the stored plan", ok, got == pl)
	}
	other := planTestProg(4)
	if _, _, ok := m.LookupPlan(other.Fingerprint(), other.Constants(), nil); ok {
		t.Error("baked entry matched a different constant vector")
	}
}
