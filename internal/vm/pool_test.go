package vm

import (
	"errors"
	"strings"
	"testing"

	"bohrium/internal/bytecode"
	"bohrium/internal/tensor"
)

func TestPoolRecyclesFreedBuffer(t *testing.T) {
	// a0 is freed before a1 materializes; a1 has the same dtype and
	// length, so its buffer must come from the pool, not a fresh
	// allocation.
	m := run(t, Config{}, `
.reg a0 float64 100
.reg a1 float64 100
BH_IDENTITY a0 1
BH_FREE a0
BH_IDENTITY a1 2
BH_SYNC a1
`)
	st := m.Stats()
	if st.BuffersAllocated != 1 {
		t.Errorf("BuffersAllocated = %d, want 1", st.BuffersAllocated)
	}
	if st.PoolHits != 1 {
		t.Errorf("PoolHits = %d, want 1", st.PoolHits)
	}
	if want := 100 * 8; st.BytesAllocated != want {
		t.Errorf("BytesAllocated = %d, want %d", st.BytesAllocated, want)
	}
	for i, v := range regSlice(t, m, 1, 100) {
		if v != 2 {
			t.Fatalf("a1[%d] = %v, want 2", i, v)
		}
	}
}

func TestPoolZeroesRecycledBuffer(t *testing.T) {
	// a1 reuses a0's buffer but writes only the even slots; the odd slots
	// must read 0 (a fresh allocation's state), not a0's stale 7s.
	m := run(t, Config{}, `
.reg a0 float64 10
.reg a1 float64 10
BH_IDENTITY a0 7
BH_FREE a0
BH_IDENTITY a1 [0:10:2] 1
BH_SYNC a1
`)
	got := regSlice(t, m, 1, 10)
	for i, v := range got {
		want := 0.0
		if i%2 == 0 {
			want = 1
		}
		if v != want {
			t.Fatalf("a1 = %v: slot %d = %v, want %v (stale data leaked through the pool?)", got, i, v, want)
		}
	}
}

// TestPoolFailedSweepLeaksNothing: the pool is shared by an engine's
// sessions, so whatever a sweep binds before it fails must read as a fresh
// allocation does — never as the 7s another session parked. (A zeroing
// skip for fully overwritten results was tried and withdrawn over exactly
// this; it showed no gain on any workload.)
func TestPoolFailedSweepLeaksNothing(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		cfg        Config
		want       error
	}{
		// a1 recycles the poisoned buffer; the 8 KiB a2 is denied.
		{"later allocation denied", "BH_IDENTITY a1 3\nBH_ADD a2 [0:10:1] a1 1\n", Config{Fusion: true}, ErrMemoryPressure},
		{"input never bound", "BH_ADD a1 a2 [0:10:1] 1\n", Config{}, ErrExec},
	} {
		eng := NewEngine(EngineConfig{MemoryHighWatermark: 1024})
		a, b := eng.NewMachine(Config{}), eng.NewMachine(tc.cfg)
		if err := a.Run(bytecode.MustParse(".reg a0 float64 10\nBH_IDENTITY a0 7\nBH_FREE a0\n")); err != nil {
			t.Fatal(err)
		}
		// Unvalidated: the second program reads a register nothing defined.
		err := b.CompileValidated(bytecode.MustParse(".reg a0 float64 10\n.reg a1 float64 10\n.reg a2 float64 1000\n"+tc.body)).Execute(b, nil)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: %v, want %v", tc.name, err, tc.want)
		}
		if b.Stats().PoolHits != 1 {
			t.Fatalf("%s: a1 did not recycle the poisoned buffer", tc.name)
		}
		if tt, ok := b.Tensor(1, tensor.NewView(tensor.MustShape(10))); ok {
			for i, v := range tt.Float64Slice() {
				if v != 0 {
					t.Errorf("%s: after the failed sweep a1[%d] = %v: another session's data", tc.name, i, v)
				}
			}
		}
		a.Close()
		b.Close()
		eng.Close()
	}
}

func TestPoolSkipsMismatchedBuffers(t *testing.T) {
	// Freed buffers only satisfy allocations of the same dtype AND length.
	m := run(t, Config{}, `
.reg a0 float64 100
.reg a1 float64 64
.reg a2 int64 100
BH_IDENTITY a0 1
BH_FREE a0
BH_IDENTITY a1 2
BH_IDENTITY a2 3
BH_SYNC a1
BH_SYNC a2
`)
	st := m.Stats()
	if st.PoolHits != 0 {
		t.Errorf("PoolHits = %d, want 0 (different length / dtype)", st.PoolHits)
	}
	if st.BuffersAllocated != 3 {
		t.Errorf("BuffersAllocated = %d, want 3", st.BuffersAllocated)
	}
}

func TestPoolNeverRecyclesBoundBuffers(t *testing.T) {
	// Buffers bound from outside (front-end input arrays) belong to the
	// caller: freeing the register must not hand the caller's storage to a
	// later allocation.
	src := `
.reg a0 float64 4
.reg a1 float64 4
.in a0
BH_FREE a0
BH_IDENTITY a1 9
BH_SYNC a1
`
	p, err := bytecode.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Config{})
	defer m.Close()
	user, _ := tensor.FromFloat64s([]float64{1, 2, 3, 4}, tensor.MustShape(4))
	m.Bind(0, user)
	if err := m.Run(p); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.PoolHits != 0 {
		t.Errorf("PoolHits = %d, want 0 (bound buffer must not be pooled)", st.PoolHits)
	}
	for i, want := range []float64{1, 2, 3, 4} {
		if got := user.Buf.Get(i); got != want {
			t.Errorf("user tensor clobbered: [%d] = %v, want %v", i, got, want)
		}
	}
}

func TestPoolByteCapBoundsMemory(t *testing.T) {
	// Once pooledBytes would exceed the cap, freed buffers go to the GC
	// instead of the pool, so diverse sizes cannot pin memory forever.
	rf := registerFile{shared: newBufferPool(1000)}
	for i := 0; i < 3; i++ {
		rf.bind(bytecode.RegID(i), tensor.MustBuffer(tensor.Float64, 100)) // 800 bytes each
		rf.owned[i] = true
		rf.free(bytecode.RegID(i))
	}
	key := poolKey{dt: tensor.Float64, n: 100}
	if got := len(rf.shared.buckets[key]); got != 1 {
		t.Errorf("pooled buffers = %d, want 1 (cap 1000 fits one 800-byte buffer)", got)
	}
	if rf.shared.pooledBytes != 800 {
		t.Errorf("pooledBytes = %d, want 800", rf.shared.pooledBytes)
	}
}

// TestPoolSharedAcrossMachines: two machines on one engine recycle each
// other's buffers — the buffer one session frees satisfies the other
// session's next matching allocation.
func TestPoolSharedAcrossMachines(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	defer eng.Close()
	src := `
.reg a0 float64 100
BH_IDENTITY a0 1
BH_FREE a0
`
	use := `
.reg a0 float64 100
BH_IDENTITY a0 2
BH_SYNC a0
`
	freeProg, err := bytecode.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	useProg, err := bytecode.Parse(use)
	if err != nil {
		t.Fatal(err)
	}
	m1 := eng.NewMachine(Config{})
	m2 := eng.NewMachine(Config{})
	defer m1.Close()
	defer m2.Close()
	if err := m1.Run(freeProg); err != nil {
		t.Fatal(err)
	}
	if err := m2.Run(useProg); err != nil {
		t.Fatal(err)
	}
	if st := m2.Stats(); st.PoolHits != 1 || st.BuffersAllocated != 0 {
		t.Errorf("cross-session recycle: hits=%d allocs=%d, want 1/0", st.PoolHits, st.BuffersAllocated)
	}
	agg := eng.Stats()
	if agg.BuffersAllocated != 1 || agg.PoolHits != 1 {
		t.Errorf("engine aggregate: allocs=%d hits=%d, want 1/1", agg.BuffersAllocated, agg.PoolHits)
	}
}

func TestReduceEmptyAxisIdentity(t *testing.T) {
	// Sum over an empty axis is 0 and Prod is 1, as in NumPy. The input
	// view is 3 broadcast rows of width 0.
	m := run(t, Config{}, `
.reg a0 float64 10
.reg a1 float64 3
.reg a2 float64 3
BH_RANDOM a0 5 0
BH_ADD_REDUCE a1 [0:3:1] a0 [0:3:0][0:0:1] axis=1
BH_MULTIPLY_REDUCE a2 [0:3:1] a0 [0:3:0][0:0:1] axis=1
BH_SYNC a1
BH_SYNC a2
`)
	for i, v := range regSlice(t, m, 1, 3) {
		if v != 0 {
			t.Errorf("empty sum[%d] = %v, want 0", i, v)
		}
	}
	for i, v := range regSlice(t, m, 2, 3) {
		if v != 1 {
			t.Errorf("empty prod[%d] = %v, want 1", i, v)
		}
	}
}

func TestReduceEmptyAxisNoIdentityErrors(t *testing.T) {
	// MIN/MAX have no identity in the first-element-seeded scheme; an
	// empty axis stays an error for them.
	for _, op := range []string{"BH_MINIMUM_REDUCE", "BH_MAXIMUM_REDUCE"} {
		src := `
.reg a0 float64 10
.reg a1 float64 3
BH_RANDOM a0 5 0
` + op + ` a1 [0:3:1] a0 [0:3:0][0:0:1] axis=1
BH_SYNC a1
`
		p, err := bytecode.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		m := New(Config{})
		err = m.Run(p)
		m.Close()
		if err == nil || !strings.Contains(err.Error(), "identity") {
			t.Errorf("%s over empty axis: err = %v, want identity error", op, err)
		}
	}
}

func TestScanEmptyAxisIsNoop(t *testing.T) {
	m := run(t, Config{}, `
.reg a0 float64 10
.reg a1 float64 10
BH_RANDOM a0 5 0
BH_ADD_ACCUMULATE a1 [0:0:1] a0 [0:0:1] axis=0
BH_SYNC a1
`)
	for i, v := range regSlice(t, m, 1, 10) {
		if v != 0 {
			t.Errorf("empty scan wrote a1[%d] = %v", i, v)
		}
	}
}
