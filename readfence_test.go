package bohrium

import "testing"

// TestDataReadDoesNotPerturbPlanKeys is the regression test for the
// sticky-Sync read leak: Array.Data used to route through Sync, which
// permanently set keptRegs for the register — one debug read re-roled
// the register in every later batch, changing those batches'
// fingerprints (cache misses forever) and blocking id recycling. A read
// must fence (materialize for this flush) without keeping: after the
// read, later structurally identical batches must keep hitting the plan
// cache.
func TestDataReadDoesNotPerturbPlanKeys(t *testing.T) {
	ctx := newTestContext(t, nil)
	x := ctx.Full(1.5, 8)
	u := x.TimesC(2) // temporary; consumed (not written) by every later batch
	ctx.MustFlush()

	iter := func() {
		s := u.Sum() // u consumed: with the leak, a kept u re-roles this batch
		s.Keep()
		ctx.MustFlush()
		s.Free()
		ctx.MustFlush()
	}
	iter() // compile both phases
	iter() // steady state
	if hits, _ := flushDelta(ctx, iter); hits != 2 {
		t.Fatalf("steady state not reached before the read (hits=%d)", hits)
	}

	// The debug read: its own batch is new structure (a BH_SYNC on u),
	// which may compile — that is fine and correct. What must NOT happen
	// is any effect on the batches that follow.
	d, err := u.Data()
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != 3 {
		t.Fatalf("u[0] = %v, want 3", d[0])
	}
	if hits, misses := flushDelta(ctx, iter); hits != 2 || misses != 0 {
		t.Errorf("a Data() read changed the next batches' plan keys: hits=%d misses=%d, want 2/0", hits, misses)
	}

	// Reading twice is still fine (the read batch itself now hits too).
	before := ctx.MustStats()
	if _, err := u.Data(); err != nil {
		t.Fatal(err)
	}
	if after := ctx.MustStats(); after.PlanMisses != before.PlanMisses {
		t.Errorf("repeated identical read batch missed the cache")
	}
}

// TestDataReadDoesNotBlockRecycling: an iteration that creates, reads
// and frees temporaries must recycle their register ids — every
// steady-state iteration records the same names, its batches keep their
// fingerprints, and the plan cache keeps hitting with the read in the
// loop.
func TestDataReadDoesNotBlockRecycling(t *testing.T) {
	ctx := newTestContext(t, nil)
	x := ctx.Full(2, 8)
	ctx.MustFlush()

	iter := func() float64 {
		tmp := x.TimesC(3) // reuses the recycled register ids per iteration
		s := tmp.Sum()
		v, err := s.Scalar() // fences s mid-loop
		if err != nil {
			t.Fatal(err)
		}
		tmp.Free()
		s.Free()
		ctx.MustFlush()
		return v
	}
	want := iter()
	iter()
	if hits, _ := flushDelta(ctx, func() { iter() }); hits == 0 {
		t.Fatal("steady state not reached")
	}
	if hits, misses := flushDelta(ctx, func() {
		if got := iter(); got != want {
			t.Fatalf("value drifted: %v != %v", got, want)
		}
	}); misses != 0 {
		t.Errorf("read-then-free iteration stopped hitting (hits=%d misses=%d)", hits, misses)
	}
}

// TestSyncStillKeeps: the public Sync keeps its pinning contract — it is
// the explicit "observe this array from now on" API, unlike the reads.
func TestSyncStillKeeps(t *testing.T) {
	ctx := newTestContext(t, nil)
	x := ctx.Full(1, 4)
	u := x.PlusC(1) // temporary
	u.Sync()
	ctx.MustFlush()
	// u consumed by a later batch: because Sync kept it, the batch roles
	// differ from the unkept variant — pin that by value, not by cache
	// internals: the optimizer must not delete u's materialization.
	s := u.Sum()
	v, err := s.Scalar()
	if err != nil {
		t.Fatal(err)
	}
	if v != 8 {
		t.Errorf("sum = %v, want 8", v)
	}
	if d := u.MustData(); d[0] != 2 {
		t.Errorf("synced temporary lost its value: %v", d[0])
	}
}

// TestInPlaceUpdateKeepsItsTemporary pins that an in-place update does
// not consume the temporary it updates: r.Sqrt() reads r, yet r is still
// the caller's result after the flush, so the optimizer must keep it.
func TestInPlaceUpdateKeepsItsTemporary(t *testing.T) {
	for _, async := range []bool{false, true} {
		ctx := newTestContext(t, &Config{Async: async})
		s := ctx.Full(3, 4)
		r := s.Times(s)
		r.Sqrt()
		if err := ctx.Flush(); err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		d, err := r.Data()
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		for i, v := range d {
			if v != 3 {
				t.Fatalf("async=%v: r[%d] = %v, want 3", async, i, v)
			}
		}
	}
}
