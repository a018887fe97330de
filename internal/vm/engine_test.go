package vm

import (
	"sync"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

// TestEngineSharesPlanCache: a plan one machine inserts is a hit for
// every other machine on the engine, and hit/miss counters land on the
// machine that did the lookup while the engine aggregates them.
func TestEngineSharesPlanCache(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	defer eng.Close()
	m1 := eng.NewMachine(Config{Fusion: true})
	m2 := eng.NewMachine(Config{Fusion: true})
	defer m1.Close()
	defer m2.Close()

	prog := planTestProg(1)
	fp := prog.Fingerprint()
	pl, err := m1.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	m1.InsertPlan(fp, prog.Constants(), true, pl, nil)

	if _, _, ok := m2.LookupPlan(fp, prog.Constants(), nil); !ok {
		t.Fatal("machine 2 missed a plan machine 1 compiled")
	}
	if st := m2.Stats(); st.PlanHits != 1 || st.PlanMisses != 0 {
		t.Errorf("m2 counters: hits=%d misses=%d, want 1/0", st.PlanHits, st.PlanMisses)
	}
	if st := m1.Stats(); st.PlanHits != 0 {
		t.Errorf("m1 counted m2's hit: %d", st.PlanHits)
	}
	if agg := eng.Stats(); agg.PlanHits != 1 {
		t.Errorf("engine aggregate hits = %d, want 1", agg.PlanHits)
	}
}

// TestEngineMachineOptOut: Config.PlanCacheSize < 0 opts one machine out
// of the shared cache without affecting its siblings.
func TestEngineMachineOptOut(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	defer eng.Close()
	in := eng.NewMachine(Config{})
	out := eng.NewMachine(Config{PlanCacheSize: -1})
	defer in.Close()
	defer out.Close()
	if !in.PlanCacheEnabled() {
		t.Error("default machine lost the shared cache")
	}
	if out.PlanCacheEnabled() {
		t.Error("opted-out machine still caches")
	}
	prog := planTestProg(2)
	pl, _ := in.Compile(prog)
	out.InsertPlan(prog.Fingerprint(), prog.Constants(), true, pl, nil)
	if _, _, ok := in.LookupPlan(prog.Fingerprint(), prog.Constants(), nil); ok {
		t.Error("opted-out machine's insert landed in the shared cache")
	}
	if st := out.Stats(); st.PlanHits != 0 || st.PlanMisses != 0 {
		t.Errorf("opted-out machine counted cache traffic: %+v", st)
	}
}

// TestEngineConcurrentLookupInsert hammers one engine's plan cache from
// many machines at once — fingerprint-identical and -distinct programs,
// parametric entries executed under racing constant vectors — and checks
// counter coherence. Run with -race.
func TestEngineConcurrentLookupInsert(t *testing.T) {
	eng := NewEngine(EngineConfig{PlanCacheSize: 8}) // small: force evictions
	defer eng.Close()

	const sessions = 8
	const rounds = 40
	var wg sync.WaitGroup
	machines := make([]*Machine, sessions)
	for i := range machines {
		machines[i] = eng.NewMachine(Config{Fusion: true})
	}
	for i, m := range machines {
		wg.Add(1)
		go func(i int, m *Machine) {
			defer wg.Done()
			bindVec(t, m, 0, []float64{1, 2, 3, 4, 5, 6, 7, 8})
			for r := 0; r < rounds; r++ {
				// Constant varies with the session: a parametric hit on
				// another session's entry runs that one plan under this
				// session's vector while the other may be executing it.
				prog := planTestProg(float64(i%3 + 1))
				fp := prog.Fingerprint()
				plan, _, ok := m.LookupPlan(fp, prog.Constants(), nil)
				if !ok {
					var err error
					if plan, err = m.Compile(prog); err != nil {
						t.Error(err)
						return
					}
					m.InsertPlan(fp, prog.Constants(), true, plan, nil)
				}
				if err := plan.Execute(m, prog.Constants()); err != nil {
					t.Error(err)
					return
				}
				want := (1 + float64(i%3+1)) * 2
				if got := regVals(t, m, 1, 8); got[0] != want {
					t.Errorf("session %d round %d: got %v, want %v", i, r, got[0], want)
					return
				}
			}
		}(i, m)
	}
	wg.Wait()

	var hits, misses int
	for _, m := range machines {
		st := m.Stats()
		hits += st.PlanHits
		misses += st.PlanMisses
		m.Close()
	}
	if total := hits + misses; total != sessions*rounds {
		t.Errorf("lookups = %d (hits %d + misses %d), want %d", total, hits, misses, sessions*rounds)
	}
	if hits == 0 {
		t.Error("no cross-session plan reuse at all")
	}
	agg := eng.Stats() // all machines retired: aggregate == folded totals
	if agg.PlanHits != hits || agg.PlanMisses != misses {
		t.Errorf("engine aggregate %d/%d != summed sessions %d/%d",
			agg.PlanHits, agg.PlanMisses, hits, misses)
	}
}

// TestPlanCacheShardedEviction: per-shard LRU stays within the total
// capacity bound and evicts once a shard overflows. Capacity 64 is the
// smallest that actually shards (8 shards of 8); tighter caches collapse
// to one shard with exact global LRU.
func TestPlanCacheShardedEviction(t *testing.T) {
	const capTotal = 64
	eng := NewEngine(EngineConfig{PlanCacheSize: capTotal})
	defer eng.Close()
	m := eng.NewMachine(Config{})
	defer m.Close()
	sized := func(n int) *bytecode.Program {
		p := bytecode.NewProgram()
		a0 := p.NewReg(tensor.Float64, n)
		v := tensor.NewView(tensor.MustShape(n))
		p.EmitIdentity(bytecode.Reg(a0, v), bytecode.Const(bytecode.ConstFloat(1)))
		p.MarkOutput(a0)
		return p
	}
	for n := 1; n <= 3*capTotal; n++ {
		prog := sized(n)
		pl, err := m.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		m.InsertPlan(prog.Fingerprint(), prog.Constants(), true, pl, nil)
	}
	if got := eng.PlanCacheLen(); got > capTotal {
		t.Errorf("cache holds %d entries, cap %d", got, capTotal)
	}
	if st := m.Stats(); st.PlanEvictions == 0 {
		t.Error("no evictions despite 3x-capacity insert stream")
	}
}

// TestWorkerPoolCloseWaitsForInflight: closing the shared pool while
// another session is mid-parallelFor must wait for its submitted chunks,
// and parallelFor after close degrades to inline execution. Run with
// -race.
func TestWorkerPoolCloseWaitsForInflight(t *testing.T) {
	pool := newWorkerPool(4)
	const n = 1 << 16
	hits := make([]int32, n)
	start := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		close(start)
		for iter := 0; iter < 50; iter++ {
			pool.parallelFor(n, 1, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
		}
		close(finished)
	}()
	<-start
	pool.close() // races with the submitting goroutine on purpose
	<-finished
	want := hits[0]
	for i, h := range hits {
		if h != want {
			t.Fatalf("element %d visited %d times, element 0 %d times — a chunk was lost", i, h, want)
		}
	}
	// After close: still correct, inline.
	ran := false
	pool.parallelFor(10, 1, func(lo, hi int) {
		if lo == 0 && hi == 10 {
			ran = true
		}
	})
	if !ran {
		t.Error("post-close parallelFor did not run inline over the full range")
	}
	pool.close() // idempotent
}
