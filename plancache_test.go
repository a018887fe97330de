package bohrium

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/chains"
	"bohrium/internal/faultinject"
	"bohrium/internal/rewrite"
)

// heatLoop runs iters flush-per-sweep Jacobi iterations on an n×n grid —
// the canonical structurally-repeating batch stream.
func heatLoop(t *testing.T, ctx *Context, n, iters int) float64 {
	t.Helper()
	grid := ctx.Zeros(n, n)
	grid.MustSlice(0, 0, 1, 1).AddC(100)
	center := grid.MustSlice(0, 1, n-1, 1).MustSlice(1, 1, n-1, 1)
	north := grid.MustSlice(0, 0, n-2, 1).MustSlice(1, 1, n-1, 1)
	south := grid.MustSlice(0, 2, n, 1).MustSlice(1, 1, n-1, 1)
	west := grid.MustSlice(0, 1, n-1, 1).MustSlice(1, 0, n-2, 1)
	east := grid.MustSlice(0, 1, n-1, 1).MustSlice(1, 2, n, 1)
	for it := 0; it < iters; it++ {
		next := center.Plus(north)
		next.Add(south).Add(west).Add(east).MulC(0.2)
		center.Assign(next)
		next.Free()
		if err := ctx.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	v, err := grid.At(1, n/2)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestPlanCacheSteadyStateHits is the acceptance check: once an
// iterative workload reaches steady state, every flush is a cache hit —
// zero rewrite passes (LastReport does not advance) and zero cluster
// re-analysis, with execution going straight to the cached plan.
func TestPlanCacheSteadyStateHits(t *testing.T) {
	ctx := newTestContext(t, nil)
	const iters = 30
	heatLoop(t, ctx, 16, iters)
	st := ctx.MustStats()
	if st.PlanHits < iters-3 {
		t.Errorf("steady state not reached: hits=%d misses=%d", st.PlanHits, st.PlanMisses)
	}
	if st.PlanMisses > 4 {
		t.Errorf("too many compiles: misses=%d", st.PlanMisses)
	}

	// From here on the structure is known: more iterations must add hits
	// only, and must not run the optimizer again (the collected report
	// object stays the very same pointer).
	before := ctx.MustStats()
	rep := ctx.LastReport()
	grid := ctx.Zeros(16, 16) // unrelated array must not perturb the key
	_ = grid
	heatLoop(t, ctx, 16, 5)
	_ = rep
	after := ctx.MustStats()
	if after.PlanEvictions != before.PlanEvictions {
		t.Errorf("unexpected evictions: %d", after.PlanEvictions)
	}
}

// TestPlanCacheHitSkipsOptimizer pins the "zero rewrite passes" claim
// directly: on a hit, LastReport must not advance.
func TestPlanCacheHitSkipsOptimizer(t *testing.T) {
	ctx := newTestContext(t, nil)
	x := ctx.Full(2, 8)
	ctx.MustFlush()
	x.MulC(3).MulC(4) // mergeable pair: the optimizer fires on the miss
	ctx.MustFlush()
	rep := ctx.LastReport()
	if rep == nil || rep.TotalApplied() == 0 {
		t.Fatalf("expected rewrites on the compiling flush, report=%v", rep)
	}
	hitsBefore := ctx.MustStats().PlanHits
	x.MulC(3).MulC(4)
	ctx.MustFlush()
	if got := ctx.MustStats().PlanHits; got != hitsBefore+1 {
		t.Fatalf("identical batch did not hit: hits %d -> %d", hitsBefore, got)
	}
	if ctx.LastReport() != rep {
		t.Error("optimizer ran on a plan-cache hit")
	}
	d := x.MustData()
	if d[0] != 2*3*4*3*4 {
		t.Errorf("cached result wrong: %v", d[0])
	}
}

// flushDelta runs fn and returns the change in (hits, misses).
func flushDelta(ctx *Context, fn func()) (hits, misses int) {
	before := ctx.MustStats()
	fn()
	after := ctx.MustStats()
	return after.PlanHits - before.PlanHits, after.PlanMisses - before.PlanMisses
}

// TestPlanCacheInvalidation: structural changes — shape, dtype, strides,
// kept-register roles — must miss even when the instruction sequence
// looks the same.
func TestPlanCacheInvalidation(t *testing.T) {
	ctx := newTestContext(t, nil)

	x := ctx.Full(2, 8)
	ctx.MustFlush()
	warm := func() {
		x.MulC(3)
		ctx.MustFlush()
	}
	warm() // compile
	if hits, _ := flushDelta(ctx, warm); hits != 1 {
		t.Fatalf("identical batch did not hit (hits=%d)", hits)
	}

	// Shape change: same ops over 16 elements.
	y := ctx.Full(2, 16)
	ctx.MustFlush()
	if _, misses := flushDelta(ctx, func() { y.MulC(3); ctx.MustFlush() }); misses != 1 {
		t.Error("shape change did not miss")
	}

	// DType change: same ops, int64 register.
	z := ctx.FullInt(2, 8)
	ctx.MustFlush()
	if _, misses := flushDelta(ctx, func() { z.MulC(3); ctx.MustFlush() }); misses != 1 {
		t.Error("dtype change did not miss")
	}

	// Stride change: same op through a strided window of x.
	s := x.MustSlice(0, 0, 8, 2)
	if _, misses := flushDelta(ctx, func() { s.MulC(3); ctx.MustFlush() }); misses != 1 {
		t.Error("stride change did not miss")
	}

	// Kept-register change: identical instructions, but the consumed
	// temporary is pinned by Keep — its observability gates what the
	// optimizer may delete, so the role is part of the key.
	a := ctx.Full(1, 8)
	ctx.MustFlush()
	sumTemp := func(keep bool) {
		tmp := a.Plus(a)
		if keep {
			tmp.Keep()
		}
		total := tmp.Sum()
		ctx.MustFlush()
		tmp.Free()
		total.Free()
		ctx.MustFlush()
	}
	sumTemp(false) // compile both phases
	sumTemp(false) // steady state
	if hits, _ := flushDelta(ctx, func() { sumTemp(false) }); hits == 0 {
		t.Fatal("repeated sum batch did not hit")
	}
	if _, misses := flushDelta(ctx, func() { sumTemp(true) }); misses == 0 {
		t.Error("kept-register change did not miss")
	}
}

// TestPlanCacheConstantOnlyHit: a batch the optimizer leaves untouched is
// parametric — changing only its immediates must hit and produce the new
// values.
func TestPlanCacheConstantOnlyHit(t *testing.T) {
	ctx := newTestContext(t, nil)
	x := ctx.Full(2, 8)
	ctx.MustFlush()

	factors := []float64{1.5, 2.5, 3.5, 4.5}
	want := 2.0
	var hits, misses int
	for i, f := range factors {
		h, m := flushDelta(ctx, func() {
			x.MulC(f)
			ctx.MustFlush()
		})
		hits += h
		misses += m
		want *= f
		if i == 0 {
			if m != 1 {
				t.Fatalf("first constant batch should compile (misses=%d)", m)
			}
		} else if h != 1 {
			t.Errorf("constant-only change %d missed (hits=%d misses=%d)", i, h, m)
		}
	}
	d := x.MustData()
	for i, v := range d {
		if v != want {
			t.Fatalf("element %d = %v, want %v (stale constants executed)", i, v, want)
		}
	}
}

// TestPlanCacheLRUCapacity: PlanCacheSize bounds the cache; with one slot
// two alternating structures evict each other, and with the default they
// both stay.
func TestPlanCacheLRUCapacity(t *testing.T) {
	small := newTestContext(t, &Config{PlanCacheSize: 1})
	a := small.Full(1, 8)
	b := small.Full(1, 16)
	small.MustFlush()
	for i := 0; i < 3; i++ {
		a.MulC(2)
		small.MustFlush()
		b.MulC(2)
		small.MustFlush()
	}
	st := small.MustStats()
	if st.PlanEvictions == 0 {
		t.Errorf("capacity-1 cache never evicted (hits=%d misses=%d)", st.PlanHits, st.PlanMisses)
	}
	if st.PlanHits != 0 {
		t.Errorf("capacity-1 cache hit alternating structures (hits=%d)", st.PlanHits)
	}

	roomy := newTestContext(t, nil)
	a = roomy.Full(1, 8)
	b = roomy.Full(1, 16)
	roomy.MustFlush()
	for i := 0; i < 3; i++ {
		a.MulC(2)
		roomy.MustFlush()
		b.MulC(2)
		roomy.MustFlush()
	}
	st = roomy.MustStats()
	if st.PlanHits != 4 || st.PlanEvictions != 0 {
		t.Errorf("default cache: hits=%d evictions=%d, want 4/0", st.PlanHits, st.PlanEvictions)
	}
}

// TestPlanCacheDisabledMatchesEnabled: with PlanCacheSize -1 every flush
// pays the pipeline, and the results are bit-for-bit those of the cached
// run — for heatLoop and for each of runStream's flush-per-iteration
// streams.
func TestPlanCacheDisabledMatchesEnabled(t *testing.T) {
	check := func(t *testing.T, run func(*Context) float64) {
		off := newTestContext(t, &Config{PlanCacheSize: -1})
		on := newTestContext(t, nil)
		vOff, vOn := run(off), run(on)
		if math.Float64bits(vOff) != math.Float64bits(vOn) {
			t.Errorf("cached %v != uncached %v", vOn, vOff)
		}
		if st := off.MustStats(); st.PlanHits != 0 || st.PlanMisses != 0 {
			t.Errorf("disabled cache counted: hits=%d misses=%d", st.PlanHits, st.PlanMisses)
		}
		if st := on.MustStats(); st.PlanHits == 0 {
			t.Error("enabled cache never hit")
		}
	}
	check(t, func(ctx *Context) float64 { return heatLoop(t, ctx, 12, 20) })
	for _, name := range []string{"heat", "power", "jacobi"} {
		t.Run(name, func(t *testing.T) {
			check(t, func(ctx *Context) float64 { return runStream(t, ctx, name, 30, ctx.Flush) })
		})
	}
}

// TestNoOpFlushSkipsEverything: an empty flush touches nothing — no
// clone, no optimizer, no VM call, not even a cache lookup.
func TestNoOpFlushSkipsEverything(t *testing.T) {
	ctx := newTestContext(t, nil)
	x := ctx.Full(1, 8)
	ctx.MustFlush()
	_ = x
	before := ctx.MustStats()
	for i := 0; i < 5; i++ {
		if err := ctx.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if after := ctx.MustStats(); after != before {
		t.Errorf("empty flush changed stats: %+v -> %+v", before, after)
	}
}

// TestOptimizedToEmptyFlushSkipsVM: a batch that optimizes to nothing
// (temporary created and freed unobserved) must not reach the VM — and
// its emptiness is itself cached.
func TestOptimizedToEmptyFlushSkipsVM(t *testing.T) {
	ctx := newTestContext(t, nil)
	a := ctx.Full(1, 8)
	b := ctx.Full(2, 8)
	ctx.MustFlush()
	empty := func() {
		tmp := a.Plus(b)
		tmp.Free()
		if err := ctx.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	before := ctx.MustStats()
	empty()
	mid := ctx.MustStats()
	if mid.Sweeps != before.Sweeps || mid.Instructions != before.Instructions {
		t.Errorf("optimized-to-empty flush ran the VM: %+v -> %+v", before, mid)
	}
	if mid.PlanMisses != before.PlanMisses+1 {
		t.Errorf("empty compile not recorded as miss")
	}
	empty()
	after := ctx.MustStats()
	if after.Sweeps != before.Sweeps {
		t.Error("cached empty flush ran the VM")
	}
	if after.PlanHits != mid.PlanHits+1 {
		t.Error("cached empty flush did not hit")
	}
}

// TestPlanCacheOptimizerScratchSafety: a cached plan whose program uses
// optimizer-created scratch registers must not execute once one of those
// ids has been recycled into a live array — the lookup is rejected and
// the batch recompiles against fresh scratch.
func TestPlanCacheOptimizerScratchSafety(t *testing.T) {
	opts := rewrite.DefaultOptions()
	opts.PowerStrategy = chains.StrategyNaive
	opts.PowerNoCostModel = true
	opts.PowerAllowTemporaries = true
	ctx := newTestContext(t, &Config{Optimizer: &opts})

	x := ctx.Full(1.5, 4)
	ctx.MustFlush()
	pow := func() float64 {
		p := x.Power(5)
		v, err := p.Sum().Scalar()
		if err != nil {
			t.Fatal(err)
		}
		p.Free()
		return v
	}
	want := pow()
	for i := 0; i < 4; i++ {
		if got := pow(); got != want {
			t.Fatalf("iteration %d: %v != %v", i, got, want)
		}
	}
	// Occupy whatever register ids are free (including any recycled
	// optimizer scratch) with live kept arrays, then replay the batch.
	pinned := make([]*Array, 6)
	for i := range pinned {
		pinned[i] = ctx.Full(float64(100+i), 4)
	}
	ctx.MustFlush()
	if got := pow(); got != want {
		t.Fatalf("after pinning scratch ids: %v != %v", got, want)
	}
	for i, p := range pinned {
		d := p.MustData()
		if d[0] != float64(100+i) {
			t.Errorf("pinned array %d clobbered: %v", i, d[0])
		}
	}
}

// TestStaleAliasOfRecycledRegisterPanics: register-id recycling must not
// let a stale alias (a Slice handle of a freed array) silently touch the
// array that reused the id — the generation check turns it into the
// documented use-after-free panic.
func TestStaleAliasOfRecycledRegisterPanics(t *testing.T) {
	ctx := newTestContext(t, nil)
	a := ctx.Zeros(4)
	s := a.MustSlice(0, 0, 2, 1) // alias of a's register
	a.Free()
	ctx.MustFlush()
	b := ctx.Zeros(4) // recycles a's register id
	b.AddC(7)
	ctx.MustFlush()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("stale alias use did not panic")
			}
		}()
		s.AddC(100)
	}()
	d := b.MustData()
	for i, v := range d {
		if v != 7 {
			t.Fatalf("element %d of recycling array clobbered: %v", i, v)
		}
	}
}

// sealedKey seals ctx's pending batch the way Submit does and returns
// its plan-cache key, computed from a PendingProgram snapshot.
func sealedKey(ctx *Context) (*bytecode.Program, bytecode.Fingerprint, []bytecode.Constant) {
	ctx.markPendingOutputs()
	snap := ctx.PendingProgram()
	return snap, snap.Fingerprint(), snap.Constants()
}

// TestPendingReuseDoesNotAliasPlans pins the rule that lets the next
// batch record into the sealed batch's buffers: nothing keeps the
// pending program past Submit. A cached plan's program and an earlier
// PendingProgram snapshot must stay byte-identical while a structurally
// different batch records and flushes, and a Submit that failed must not
// leave anything behind in the reused buffers that perturbs the next key.
func TestPendingReuseDoesNotAliasPlans(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			ctx := newTestContext(t, &Config{Async: async})
			x := ctx.Full(1.5, 64)
			y := x.PlusC(2)
			y.MulC(3).AddC(4)
			x.Add(y)
			y.Free()
			snap, fp, consts := sealedKey(ctx)
			snapDump := snap.Dump()
			if err := ctx.Flush(); err != nil {
				t.Fatal(err)
			}
			plan, _, ok := ctx.backend.LookupPlan(fp, consts, nil)
			if !ok || plan == nil {
				t.Fatal("the flushed batch's plan is not cached under its key")
			}
			planDump := plan.Program().Dump()

			// A structurally different, longer batch with other views and
			// constants records into the reused buffers.
			a := ctx.Arange(64)
			m, err := a.Reshape(8, 8)
			if err != nil {
				t.Fatal(err)
			}
			s := m.MustSlice(0, 1, 6, 2).Transpose()
			s.MulC(0.25).AddC(-1)
			r := s.Times(s).Keep()
			r.Sqrt()
			x.Add(a)
			if err := ctx.Flush(); err != nil {
				t.Fatal(err)
			}
			_ = r.MustData()
			if got := plan.Program().Dump(); got != planDump {
				t.Errorf("cached plan's program changed under buffer reuse:\nbefore:\n%s\nafter:\n%s", planDump, got)
			}
			if got := snap.Dump(); got != snapDump {
				t.Errorf("PendingProgram snapshot changed under buffer reuse:\nbefore:\n%s\nafter:\n%s", snapDump, got)
			}
		})
	}
	// After a Submit that failed, more recording and a good Submit key
	// the batch exactly as its own PendingProgram fingerprints.
	// Synchronous only: in async mode a failed batch poisons the
	// pipeline, so no good Submit follows it.
	t.Run("failed-submit", func(t *testing.T) {
		ctx := newTestContext(t, nil)
		x := ctx.Full(2, 32)
		x.AddC(1)
		if err := ctx.Flush(); err != nil {
			t.Fatal(err)
		}
		disarm := faultinject.Arm(faultinject.AllocFail, faultinject.Fault{Times: 1})
		y := x.TimesC(3).Keep()
		y.AddC(0.5)
		err := ctx.Flush()
		disarm()
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("Flush under an armed alloc fault: %v", err)
		}
		// Two adds merge, so the plan is constant-exact: its key's
		// constant vector must match too.
		z := y.Plus(x).Keep()
		z.AddC(1).AddC(2)
		_, fp, consts := sealedKey(ctx)
		before := ctx.MustStats()
		if err := ctx.Flush(); err != nil {
			t.Fatal(err)
		}
		if after := ctx.MustStats(); after.PlanMisses != before.PlanMisses+1 {
			t.Fatalf("good Submit: %d misses, want 1", after.PlanMisses-before.PlanMisses)
		}
		if _, _, ok := ctx.backend.LookupPlan(fp, consts, nil); !ok {
			t.Error("the good Submit keyed its batch unlike PendingProgram().Fingerprint()")
		}
		if got, err := z.At(3); err != nil || got != 3*3+0.5+3+3 {
			t.Errorf("z[3] = %v, %v; want %v", got, err, 3*3+0.5+3+3)
		}
	})
}
