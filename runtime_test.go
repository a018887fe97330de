package bohrium

import (
	"math"
	"sync"
	"testing"

	"bohrium/internal/rewrite"
)

// sessionTrace is everything one session observed: the bit patterns of
// every value it read and the text of every error it saw, in order. The
// differential requirement is that a session's trace is identical whether
// it ran on a private runtime or alongside K-1 other sessions on a shared
// one.
type sessionTrace struct {
	vals []uint64
	errs []string
}

func (tr *sessionTrace) value(v float64, err error) {
	if err != nil {
		tr.errs = append(tr.errs, err.Error())
		return
	}
	tr.vals = append(tr.vals, math.Float64bits(v))
}

func (tr *sessionTrace) equal(o sessionTrace) bool {
	if len(tr.vals) != len(o.vals) || len(tr.errs) != len(o.errs) {
		return false
	}
	for i := range tr.vals {
		if tr.vals[i] != o.vals[i] {
			return false
		}
	}
	for i := range tr.errs {
		if tr.errs[i] != o.errs[i] {
			return false
		}
	}
	return true
}

// diffWorkload is one session's script, parameterized by the session
// index so that some sessions are fingerprint-identical (k%4 pairs up
// across K=8) and some differ in constants only — the parametric
// plan-patching path — while every session still has a deterministic
// private answer.
func diffWorkload(k int, ctx *Context) sessionTrace {
	var tr sessionTrace
	n := 48

	// Jacobi-style stream: structurally identical every iteration, the
	// plan-cache steady state.
	grid := ctx.Zeros(n, n)
	grid.MustSlice(0, 0, 1, 1).AddC(float64(k%4 + 1))
	center := grid.MustSlice(0, 1, n-1, 1).MustSlice(1, 1, n-1, 1)
	north := grid.MustSlice(0, 0, n-2, 1).MustSlice(1, 1, n-1, 1)
	south := grid.MustSlice(0, 2, n, 1).MustSlice(1, 1, n-1, 1)
	west := grid.MustSlice(0, 1, n-1, 1).MustSlice(1, 0, n-2, 1)
	east := grid.MustSlice(0, 1, n-1, 1).MustSlice(1, 2, n, 1)
	for it := 0; it < 12; it++ {
		next := center.Plus(north)
		next.Add(south).Add(west).Add(east).MulC(0.2)
		center.Assign(next)
		next.Free()
		if err := ctx.Flush(); err != nil {
			tr.errs = append(tr.errs, err.Error())
			return tr
		}
	}
	tr.value(grid.At(1, n/2))

	// Power chain with per-iteration constants: parametric or baked
	// plan-cache entries depending on what the optimizer does, patched
	// under concurrent traffic in the shared configuration.
	x := ctx.Full(1+0.125*float64(k%4), 256)
	for it := 1; it <= 10; it++ {
		y := x.Power(3)
		y.MulC(1 / float64(it))
		s := y.Sum()
		tr.value(s.Scalar())
		s.Free()
		y.Free()
	}

	// Reduction + scan mix on a strided view.
	z := ctx.Arange(128)
	z.MulC(float64(k%4) + 0.5)
	odd := z.MustSlice(0, 1, 128, 2)
	c := odd.CumSum(0)
	tr.value(c.At(31))
	c.Free()

	// Error path: MAX over an empty axis fails at execution; the text
	// must be identical shared vs private, and the session must keep
	// being usable afterwards in sync mode (in async mode the pipeline
	// poisons — also identically).
	e := ctx.Zeros(0).Max()
	tr.value(e.Scalar())
	tr.value(grid.At(1, 1))
	return tr
}

// runSessions drives K sessions concurrently, each built by factory, and
// returns the per-session traces.
func runSessions(k int, factory func(i int) *Context) []sessionTrace {
	traces := make([]sessionTrace, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := factory(i)
			defer ctx.Close()
			traces[i] = diffWorkload(i, ctx)
		}(i)
	}
	wg.Wait()
	return traces
}

// TestSharedRuntimeDifferential is the acceptance suite: K=8 concurrent
// sessions on one shared Runtime produce bit-for-bit the same values and
// error text as K private-runtime sessions, in both sync and async
// configs. Run under -race in CI: it also proves the shared plan cache,
// buffer pool, and worker pool are race-free under real session traffic.
func TestSharedRuntimeDifferential(t *testing.T) {
	const K = 8
	for _, async := range []bool{false, true} {
		name := "sync"
		if async {
			name = "async"
		}
		t.Run(name, func(t *testing.T) {
			cfg := &Config{Async: async}
			private := runSessions(K, func(i int) *Context { return NewContext(cfg) })

			rt := NewRuntime(nil)
			defer rt.Close()
			shared := runSessions(K, func(i int) *Context { return rt.NewContext(cfg) })

			for i := 0; i < K; i++ {
				if !shared[i].equal(private[i]) {
					t.Errorf("session %d diverged:\n shared: %d vals %v errs %v\nprivate: %d vals %v errs %v",
						i, len(shared[i].vals), shared[i].vals, shared[i].errs,
						len(private[i].vals), private[i].vals, private[i].errs)
				}
				if len(shared[i].errs) == 0 {
					t.Errorf("session %d saw no error from the empty-MAX step", i)
				}
			}
			// Sessions 0 and 4 run identical scripts; their traces must
			// agree with each other too (sanity on the workload itself).
			if !shared[0].equal(shared[4]) {
				t.Error("fingerprint-identical sessions 0 and 4 disagree")
			}
			if st := rt.Stats(); st.PlanHits == 0 {
				t.Error("shared runtime recorded no plan-cache hits at all")
			}
		})
	}
}

// TestSharedRuntimeCrossSessionReuse pins the point of the tentpole: a
// session flushing a batch another session already compiled must hit the
// shared plan cache without ever compiling, and recycle the other
// session's freed buffers.
func TestSharedRuntimeCrossSessionReuse(t *testing.T) {
	rt := NewRuntime(nil)
	defer rt.Close()

	script := func(ctx *Context) float64 {
		x := ctx.Full(2, 512)
		for i := 0; i < 6; i++ {
			y := x.Power(2)
			y.AddC(1)
			s := y.Sum()
			if _, err := s.Scalar(); err != nil {
				t.Fatal(err)
			}
			s.Free()
			y.Free()
		}
		v, err := x.At(0)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	first := rt.NewContext(nil)
	script(first)
	firstStats := first.MustStats()
	first.Close()
	if firstStats.PlanMisses == 0 {
		t.Fatal("first session compiled nothing — workload broken")
	}

	second := rt.NewContext(nil)
	script(second)
	secondStats := second.MustStats()
	second.Close()
	if secondStats.PlanMisses != 0 {
		t.Errorf("second session recompiled %d batches the first already compiled (hits=%d)",
			secondStats.PlanMisses, secondStats.PlanHits)
	}
	if secondStats.PlanHits == 0 {
		t.Error("second session never hit the shared plan cache")
	}
	if secondStats.BuffersAllocated >= firstStats.BuffersAllocated {
		t.Errorf("second session allocated %d buffers, first %d — shared recycle pool not working",
			secondStats.BuffersAllocated, firstStats.BuffersAllocated)
	}
}

// TestSharedRuntimeConfigIsolation: sessions with different compilation
// semantics (optimizer ablated, fusion off) on ONE runtime must never
// serve each other plans — each behaves bit-for-bit like it would on a
// private runtime, even though the batches fingerprint identically.
func TestSharedRuntimeConfigIsolation(t *testing.T) {
	rt := NewRuntime(nil)
	defer rt.Close()

	script := func(ctx *Context) []float64 {
		x := ctx.Full(1.7, 64)
		var out []float64
		for i := 0; i < 4; i++ {
			y := x.Power(5) // optimized: expanded to a multiply chain; ablated: BH_POWER
			s := y.Sum()
			v, err := s.Scalar()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
			s.Free()
			y.Free()
		}
		return out
	}
	configs := []*Config{
		nil,                             // full pipeline
		{Optimizer: &rewrite.Options{}}, // every rewrite off
		{DisableFusion: true},           // interpret instruction by instruction
	}
	for i, cfg := range configs {
		private := NewContext(cfg)
		wantVals := script(private)
		wantStats := private.MustStats()
		private.Close()

		shared := rt.NewContext(cfg)
		gotVals := script(shared)
		gotStats := shared.MustStats()
		shared.Close()

		for j := range wantVals {
			if math.Float64bits(gotVals[j]) != math.Float64bits(wantVals[j]) {
				t.Errorf("config %d: shared value %v != private %v (a cross-config plan leaked)",
					i, gotVals[j], wantVals[j])
			}
		}
		// The execution shape must match too: a no-fusion session hitting
		// a fused plan would show fewer sweeps than its private twin.
		if gotStats.Sweeps != wantStats.Sweeps || gotStats.FusedInstructions != wantStats.FusedInstructions {
			t.Errorf("config %d: shared ran sweeps=%d fused=%d, private sweeps=%d fused=%d",
				i, gotStats.Sweeps, gotStats.FusedInstructions, wantStats.Sweeps, wantStats.FusedInstructions)
		}
	}
}

// TestSharedRuntimeConcurrentCacheCounters floods one Runtime from many
// goroutines with fingerprint-identical AND fingerprint-distinct batches
// and checks the counters stay coherent: every flush is either a hit or
// a miss, the aggregate equals the per-session sum, and the cache never
// exceeds its capacity. Run with -race.
func TestSharedRuntimeConcurrentCacheCounters(t *testing.T) {
	const K = 8
	const iters = 25
	rt := NewRuntime(&RuntimeConfig{PlanCacheSize: 12}) // small: force evictions
	defer rt.Close()

	stats := make([]struct{ hits, misses int }, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := rt.NewContext(nil)
			defer ctx.Close()
			// Distinct shape per i%3 (fingerprint-distinct across groups,
			// identical within) plus a per-session rotating extra shape to
			// stir eviction traffic.
			n := 64 << (i % 3)
			x := ctx.Full(float64(i+1), n)
			flushes := 0
			for it := 0; it < iters; it++ {
				x.AddC(float64(it + 1))
				if err := ctx.Flush(); err != nil {
					t.Error(err)
					return
				}
				flushes++
				if it%5 == i%5 {
					w := ctx.Full(1, 16+i)
					w.MulC(3)
					if err := ctx.Flush(); err != nil {
						t.Error(err)
						return
					}
					flushes++
					w.Free()
				}
			}
			st := ctx.MustStats()
			stats[i].hits, stats[i].misses = st.PlanHits, st.PlanMisses
			if st.PlanHits+st.PlanMisses != flushes {
				t.Errorf("session %d: hits %d + misses %d != flushes %d", i, st.PlanHits, st.PlanMisses, flushes)
			}
		}(i)
	}
	wg.Wait()

	var hits, misses int
	for _, s := range stats {
		hits += s.hits
		misses += s.misses
	}
	agg := rt.Stats()
	if agg.PlanHits != hits || agg.PlanMisses != misses {
		t.Errorf("aggregate %d/%d != summed sessions %d/%d", agg.PlanHits, agg.PlanMisses, hits, misses)
	}
	if hits == 0 {
		t.Error("no hits under concurrent fingerprint-identical traffic")
	}
	if agg.PlanEvictions == 0 {
		t.Error("no evictions despite an over-capacity working set")
	}
	if got := rt.PlanCacheLen(); got > 12 {
		t.Errorf("cache len %d exceeds capacity 12", got)
	}
}

// TestRuntimeCloseAfterSessions: closing the runtime after its sessions
// is clean, idempotent, and a session created on a closed runtime would
// be a programming error the pool degrades gracefully on (sweeps run
// inline) rather than a crash.
// TestRuntimeSessionRegistry: every live session on a runtime —
// Contexts and externally registered backend sessions alike — shows up
// in Sessions until its release hook runs, and the hook is idempotent.
// This is the enumeration surface the bhd daemon's janitor and stats
// endpoints stand on.
func TestRuntimeSessionRegistry(t *testing.T) {
	rt := NewRuntime(nil)
	defer rt.Close()
	if n := rt.SessionCount(); n != 0 {
		t.Fatalf("fresh runtime has %d sessions", n)
	}

	ctx := rt.NewContext(nil)
	release := rt.Register("tenant-a/s1")
	if got := rt.Sessions(); len(got) != 2 || got[0] != "context/inprocess" || got[1] != "tenant-a/s1" {
		t.Fatalf("Sessions() = %v, want [context/inprocess tenant-a/s1]", got)
	}

	release()
	release() // idempotent: must not disturb other sessions
	if got := rt.Sessions(); len(got) != 1 || got[0] != "context/inprocess" {
		t.Fatalf("Sessions() after release = %v", got)
	}

	ctx.Close()
	if n := rt.SessionCount(); n != 0 {
		t.Fatalf("SessionCount() = %d after all closed, want 0", n)
	}

	// A private-runtime Context registers on its own runtime, not a
	// shared one, and deregisters on Close like any session.
	priv := NewContext(nil)
	priv.Close()
	if n := rt.SessionCount(); n != 0 {
		t.Fatalf("private context leaked into shared runtime: %d", n)
	}
}

func TestRuntimeCloseAfterSessions(t *testing.T) {
	rt := NewRuntime(nil)
	ctx := rt.NewContext(nil)
	a := ctx.Ones(1 << 15)
	a.AddC(1)
	if _, err := a.Data(); err != nil {
		t.Fatal(err)
	}
	ctx.Close()
	rt.Close()
	rt.Close() // idempotent

	late := rt.NewContext(nil)
	defer late.Close()
	b := late.Ones(1 << 15)
	b.AddC(2)
	got, err := b.Data()
	if err != nil {
		t.Fatalf("post-close session failed instead of degrading: %v", err)
	}
	if got[0] != 3 {
		t.Fatalf("post-close session computed %v, want 3", got[0])
	}
}

// TestSharedRuntimeAlternatingConstants: two sessions on one Runtime run
// one batch structure concurrently, each alternating its constant out of
// phase with the other, so every hit runs the one cached plan under a
// vector the other session may be running it under at the same moment.
// Each session ends bit for bit as its script run alone, the structure
// holds one cache entry, and nothing misses after warm-up. Run with -race.
func TestSharedRuntimeAlternatingConstants(t *testing.T) {
	const n, rounds = 2048, 200
	// jacobi returns a session's grid and one flush of the Jacobi batch
	// under a constant, the dispatch-small shape.
	jacobi := func(ctx *Context, seed float64) (*Array, func(c float64) error) {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = seed + float64(i%13)*0.125
		}
		u := ctx.MustFromSlice(vals, n)
		uc, ul, ur := u.MustSlice(0, 1, n-1, 1), u.MustSlice(0, 0, n-2, 1), u.MustSlice(0, 2, n, 1)
		return u, func(c float64) error {
			t := ul.Plus(ur)
			t.MulC(c)
			uc.Assign(t)
			t.Free()
			return ctx.Flush()
		}
	}
	scales := [2]float64{0.5, 0.25}
	run := func(ctx *Context, session, from, to int, flush func(float64) error) {
		for r := from; r < to; r++ {
			if err := flush(scales[(r+session)%2]); err != nil {
				t.Error(err)
				return
			}
		}
	}
	want := make([][]float64, 2)
	for s := range want {
		ctx := NewContext(nil)
		u, flush := jacobi(ctx, float64(s+1))
		run(ctx, s, 0, rounds, flush)
		want[s] = u.MustData()
		ctx.Close()
	}

	rt := NewRuntime(nil)
	defer rt.Close()
	ctxs, grids, flushes := make([]*Context, 2), make([]*Array, 2), make([]func(float64) error, 2)
	for s := range ctxs {
		ctxs[s] = rt.NewContext(nil)
		defer ctxs[s].Close()
		grids[s], flushes[s] = jacobi(ctxs[s], float64(s+1))
		run(ctxs[s], s, 0, 2, flushes[s]) // warm-up: both constants, both sessions
	}
	entries, misses := rt.PlanCacheLen(), rt.Stats().PlanMisses
	var wg sync.WaitGroup
	for s := range ctxs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(ctxs[s], s, 2, rounds, flushes[s])
		}()
	}
	wg.Wait()
	if got := rt.PlanCacheLen(); entries != 1 || got != 1 {
		t.Errorf("%d cache entries after warm-up, %d after the concurrent rounds; want the one structure's", entries, got)
	}
	if got := rt.Stats().PlanMisses; got != misses {
		t.Errorf("%d plan misses after warm-up, want 0", got-misses)
	}
	for s, ctx := range ctxs {
		got := grids[s].MustData()
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[s][i]) {
				t.Fatalf("session %d: u[%d] = %v, alone it is %v", s, i, got[i], want[s][i])
			}
		}
		if st := ctx.MustStats(); st.PlanHits < rounds-2 {
			t.Errorf("session %d: %d plan hits, want at least %d", s, st.PlanHits, rounds-2)
		}
	}
}
