package bohrium

import (
	"math"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/rewrite"
	"bohrium/internal/tensor"
)

func newTestContext(t *testing.T, cfg *Config) *Context {
	t.Helper()
	ctx := NewContext(cfg)
	t.Cleanup(ctx.Close)
	return ctx
}

func TestListing1Quickstart(t *testing.T) {
	// The paper's Listing 1: a = zeros(10); a += 1 three times; print a.
	ctx := newTestContext(t, nil)
	a := ctx.Zeros(10)
	a.AddC(1)
	a.AddC(1)
	a.AddC(1)
	data := a.MustData()
	if len(data) != 10 {
		t.Fatalf("len = %d", len(data))
	}
	for i, v := range data {
		if v != 3 {
			t.Fatalf("a[%d] = %v, want 3", i, v)
		}
	}
	// The optimizer must have merged the three adds (Listing 2→3).
	rep := ctx.LastReport()
	if rep == nil {
		t.Fatal("no optimizer report collected")
	}
	if rep.Applied["add-merge"] < 2 {
		t.Errorf("add-merge fired %d times, want >= 2: %v", rep.Applied["add-merge"], rep.Applied)
	}
}

func TestRecordedBytecodeMatchesListing2(t *testing.T) {
	// The byte-code the front-end records for Listing 1 is exactly the
	// paper's Listing 2 (IDENTITY, ADD, ADD, ADD; SYNC arrives on read).
	ctx := newTestContext(t, nil)
	a := ctx.Zeros(10)
	a.AddC(1).AddC(1).AddC(1)
	p := ctx.PendingProgram()
	wantOps := []bytecode.Opcode{bytecode.OpIdentity, bytecode.OpAdd, bytecode.OpAdd, bytecode.OpAdd}
	if p.Len() != len(wantOps) {
		t.Fatalf("recorded %d byte-codes, want %d:\n%s", p.Len(), len(wantOps), p)
	}
	for i, op := range wantOps {
		if p.Instrs[i].Op != op {
			t.Errorf("instr %d = %s, want %s", i, p.Instrs[i].Op, op)
		}
	}
	if got := p.Instrs[1].String(); got != "BH_ADD a0 [0:10:1] a0 [0:10:1] 1" {
		t.Errorf("recorded %q, want the paper's Listing 2 line", got)
	}
}

func TestOptimizerDisabled(t *testing.T) {
	ctx := newTestContext(t, &Config{Optimizer: &rewrite.Options{}})
	a := ctx.Zeros(10)
	a.AddC(1).AddC(1).AddC(1)
	if _, err := a.Data(); err != nil {
		t.Fatal(err)
	}
	if got := ctx.LastReport().TotalApplied(); got != 0 {
		t.Errorf("disabled optimizer applied %d rewrites", got)
	}
	if v, _ := a.At(0); v != 3 {
		t.Errorf("unoptimized result = %v, want 3", v)
	}
}

func TestArithmeticChain(t *testing.T) {
	ctx := newTestContext(t, nil)
	a := ctx.Arange(5) // 0 1 2 3 4
	a.MulC(2).AddC(1)  // 1 3 5 7 9
	b := ctx.Full(10, 5)
	c := a.Plus(b) // 11 13 15 17 19
	got := c.MustData()
	want := []float64{11, 13, 15, 17, 19}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("c = %v, want %v", got, want)
		}
	}
}

func TestPowerMatchesMathPow(t *testing.T) {
	ctx := newTestContext(t, nil)
	x := ctx.Full(1.5, 100)
	y := x.Power(10)
	got := y.MustData()
	want := math.Pow(1.5, 10)
	for i, v := range got {
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("y[%d] = %v, want %v", i, v, want)
		}
	}
	if ctx.LastReport().Applied["power-expand"] != 1 {
		t.Errorf("power expansion did not fire: %v", ctx.LastReport().Applied)
	}
}

func TestSolveViaInverseGetsRewritten(t *testing.T) {
	// Equation (2) end to end: the user writes x = A⁻¹·B; the optimizer
	// executes a single BH_SOLVE.
	ctx := newTestContext(t, nil)
	a := ctx.MustFromSlice([]float64{2, 1, 1, 3}, 2, 2)
	b := ctx.MustFromSlice([]float64{5, 10}, 2, 1)
	x := a.Inverse().MatMul(b)
	got := x.MustData()
	if math.Abs(got[0]-1) > 1e-9 || math.Abs(got[1]-3) > 1e-9 {
		t.Fatalf("x = %v, want [1 3]", got)
	}
	if ctx.LastReport().Applied["inverse-to-solve"] != 1 {
		t.Errorf("inverse-to-solve did not fire: %v", ctx.LastReport().Applied)
	}
}

func TestSolveRewriteBlockedWhenInverseUsed(t *testing.T) {
	ctx := newTestContext(t, nil)
	a := ctx.MustFromSlice([]float64{2, 1, 1, 3}, 2, 2)
	b := ctx.MustFromSlice([]float64{5, 10}, 2, 1)
	inv := a.Inverse()
	x := inv.MatMul(b)
	// The inverse is read again afterwards: no rewrite allowed.
	trace := inv.Sum()
	if _, err := x.Data(); err != nil {
		t.Fatal(err)
	}
	if ctx.LastReport().Applied["inverse-to-solve"] != 0 {
		t.Error("rewrite fired although the inverse is reused")
	}
	tr, err := trace.Scalar()
	if err != nil {
		t.Fatal(err)
	}
	// trace here is the sum of all inverse entries; for [[2,1],[1,3]]⁻¹ =
	// [[0.6,-0.2],[-0.2,0.4]] the sum is 0.6.
	if math.Abs(tr-0.6) > 1e-9 {
		t.Errorf("sum of inverse entries = %v, want 0.6", tr)
	}
}

func TestDirectSolve(t *testing.T) {
	ctx := newTestContext(t, nil)
	a := ctx.MustFromSlice([]float64{4, 1, 0, 1, 5, 2, 0, 2, 6}, 3, 3)
	b := ctx.MustFromSlice([]float64{1, 2, 3}, 3)
	x := a.Solve(b)
	got := x.MustData()
	// Verify A·x = b.
	res := make([]float64, 3)
	A := []float64{4, 1, 0, 1, 5, 2, 0, 2, 6}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			res[i] += A[i*3+j] * got[j]
		}
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(res[i]-want[i]) > 1e-9 {
			t.Fatalf("residual at %d: %v vs %v", i, res[i], want[i])
		}
	}
}

func TestSlicingAliases(t *testing.T) {
	ctx := newTestContext(t, nil)
	a := ctx.Zeros(10)
	evens := a.MustSlice(0, 0, 10, 2)
	evens.AddC(5)
	got := a.MustData()
	for i, v := range got {
		want := 0.0
		if i%2 == 0 {
			want = 5
		}
		if v != want {
			t.Fatalf("a = %v", got)
		}
	}
}

func TestTransposeAndMatMul(t *testing.T) {
	ctx := newTestContext(t, nil)
	a := ctx.MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := a.Transpose()
	if got := at.Shape(); got[0] != 3 || got[1] != 2 {
		t.Fatalf("transpose shape = %v", got)
	}
	prod := a.MatMul(at) // 2x2: [[14, 32], [32, 77]]
	got := prod.MustData()
	want := []float64{14, 32, 32, 77}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("a·aᵀ = %v, want %v", got, want)
		}
	}
}

func TestReductions(t *testing.T) {
	ctx := newTestContext(t, nil)
	a := ctx.Arange(12)
	m, err := a.Reshape(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	rows := m.SumAxis(1)
	if got := rows.MustData(); got[0] != 6 || got[1] != 22 || got[2] != 38 {
		t.Errorf("row sums = %v", got)
	}
	total, err := m.Sum().Scalar()
	if err != nil {
		t.Fatal(err)
	}
	if total != 66 {
		t.Errorf("total = %v, want 66", total)
	}
	mx, _ := m.Max().Scalar()
	if mx != 11 {
		t.Errorf("max = %v, want 11", mx)
	}
	mean, _ := ctx.Arange(5).Mean().Scalar()
	if mean != 2 {
		t.Errorf("mean = %v, want 2", mean)
	}
}

func TestCumSum(t *testing.T) {
	ctx := newTestContext(t, nil)
	cs := ctx.Arange(5).CumSum(0)
	got := cs.MustData()
	want := []float64{0, 1, 3, 6, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cumsum = %v, want %v", got, want)
		}
	}
}

func TestMultipleFlushes(t *testing.T) {
	// Values persist across flushes; later batches treat earlier arrays
	// as inputs.
	ctx := newTestContext(t, nil)
	a := ctx.Zeros(4)
	a.AddC(2)
	if v, _ := a.At(0); v != 2 {
		t.Fatalf("first flush: %v", v)
	}
	a.MulC(10)
	if v, _ := a.At(0); v != 20 {
		t.Fatalf("second flush: %v", v)
	}
	b := a.PlusC(1)
	if v, _ := b.At(3); v != 21 {
		t.Fatalf("third flush: %v", v)
	}
}

func TestUnsyncedArraySurvivesFlush(t *testing.T) {
	// An array never explicitly synced must still hold its value after an
	// unrelated flush (handle liveness blocks DCE).
	ctx := newTestContext(t, nil)
	kept := ctx.Ones(4)
	kept.AddC(1) // never synced directly
	other := ctx.Zeros(4)
	if _, err := other.Data(); err != nil { // flushes everything
		t.Fatal(err)
	}
	if v, _ := kept.At(0); v != 2 {
		t.Errorf("unsynced array lost its value: %v", v)
	}
}

func TestFreedArrayPanics(t *testing.T) {
	ctx := newTestContext(t, nil)
	a := ctx.Zeros(4)
	a.Free()
	defer func() {
		if recover() == nil {
			t.Error("use after Free did not panic")
		}
	}()
	a.AddC(1)
}

func TestShapeMismatchPanics(t *testing.T) {
	ctx := newTestContext(t, nil)
	a := ctx.Zeros(4)
	b := ctx.Zeros(5)
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	a.Add(b)
}

func TestClosedContext(t *testing.T) {
	ctx := NewContext(nil)
	a := ctx.Zeros(4)
	ctx.Close()
	if err := ctx.Flush(); err == nil {
		t.Error("Flush after Close succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Error("array op after Close did not panic")
		}
	}()
	a.AddC(1)
}

func TestIntegerArrays(t *testing.T) {
	ctx := newTestContext(t, nil)
	a := ctx.FullInt(7, 4)
	a.AddC(1).AddC(1).AddC(1)
	got := a.MustData()
	for _, v := range got {
		if v != 10 {
			t.Fatalf("int array = %v, want 10s", got)
		}
	}
	if a.DType() != tensor.Int64 {
		t.Error("dtype lost")
	}
}

func TestComparisonAndAsType(t *testing.T) {
	ctx := newTestContext(t, nil)
	a := ctx.Arange(6)
	mask := a.GreaterC(2.5) // F F F T T T
	count, err := mask.AsType(tensor.Float64).Sum().Scalar()
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("count = %v, want 3", count)
	}
}

func TestLinspace(t *testing.T) {
	ctx := newTestContext(t, nil)
	xs := ctx.Linspace(0, 1, 5).MustData()
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-12 {
			t.Fatalf("linspace = %v, want %v", xs, want)
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	ctx := newTestContext(t, nil)
	r1 := ctx.Random(11, 100).MustData()
	r2 := ctx.Random(11, 100).MustData()
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("same-seed Random streams differ")
		}
		if r1[i] < 0 || r1[i] >= 1 {
			t.Fatalf("random value %v outside [0,1)", r1[i])
		}
	}
}

func TestStatsAndFusion(t *testing.T) {
	ctx := newTestContext(t, &Config{Optimizer: &rewrite.Options{}}) // no rewrites
	a := ctx.Zeros(100)
	a.AddC(1).AddC(1).MulC(2)
	if _, err := a.Data(); err != nil {
		t.Fatal(err)
	}
	st := ctx.MustStats()
	if st.Sweeps != 1 {
		t.Errorf("fusion off-stats: sweeps = %d, want 1 fused cluster", st.Sweeps)
	}
	if st.FusedInstructions != 4 {
		t.Errorf("fused instructions = %d, want 4", st.FusedInstructions)
	}
}

func TestScalarErrors(t *testing.T) {
	ctx := newTestContext(t, nil)
	a := ctx.Zeros(4)
	if _, err := a.Scalar(); err == nil {
		t.Error("Scalar on 4-element array succeeded")
	}
	if _, err := a.At(0, 0); err == nil {
		t.Error("At with wrong arity succeeded")
	}
}

func TestStringRendersValues(t *testing.T) {
	ctx := newTestContext(t, nil)
	a := ctx.Ones(3)
	if got := a.String(); got != "[1 1 1]" {
		t.Errorf("String = %q", got)
	}
}

func TestFreeConsumedTempAcrossFlushes(t *testing.T) {
	// Regression: a temporary consumed and then Free'd must not be carried
	// into the next batch as an input — its buffer went back to the VM's
	// recycle pool, so the next flush would fail with "input register not
	// bound".
	ctx := newTestContext(t, nil)
	a := ctx.Ones(4)
	tmp := a.Plus(a)
	a.Assign(tmp)
	tmp.Free()
	if _, err := a.Data(); err != nil {
		t.Fatal(err)
	}
	a.AddC(1)
	got, err := a.Data()
	if err != nil {
		t.Fatalf("flush after freed temp: %v", err)
	}
	for i, v := range got {
		if v != 3 {
			t.Errorf("a[%d] = %v, want 3", i, v)
		}
	}
}

func TestPoolHitsSurfaceThroughContextStats(t *testing.T) {
	// Freeing the per-iteration temporary lets the VM recycle one buffer
	// per loop instead of allocating one, and the counters must be visible
	// on the public Stats. Each iteration flushes while the temporary is
	// still live: one freed inside the batch that defines it is never
	// materialized at all (the loop nest keeps it in row scratch), so it
	// would neither allocate nor recycle.
	ctx := newTestContext(t, nil)
	acc := ctx.Zeros(512)
	for i := 0; i < 8; i++ {
		tmp := acc.Plus(acc)
		acc.Assign(tmp)
		if err := ctx.Flush(); err != nil {
			t.Fatal(err)
		}
		tmp.Free()
	}
	if _, err := acc.Data(); err != nil {
		t.Fatal(err)
	}
	st := ctx.MustStats()
	if st.PoolHits < 7 {
		t.Errorf("PoolHits = %d, want ≥ 7 (one per recycled loop temporary)", st.PoolHits)
	}
	if st.BuffersAllocated == 0 || st.BytesAllocated == 0 {
		t.Errorf("allocation counters empty: %+v", st)
	}
}
