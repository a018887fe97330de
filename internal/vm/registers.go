package vm

import (
	"fmt"
	"slices"
	"sync"

	"bohrium/internal/bytecode"
	"bohrium/internal/faultinject"
	"bohrium/internal/tensor"
)

// poolKey identifies a freelist bucket: buffers are interchangeable exactly
// when they store the same dtype at the same length.
type poolKey struct {
	dt tensor.DType
	n  int
}

// maxPooledPerKey caps each freelist bucket so a burst of frees cannot pin
// unbounded memory; beyond the cap, freed buffers go back to the GC.
const maxPooledPerKey = 32

// defaultPoolCapBytes bounds the bytes parked across ALL freelist buckets,
// so a long-lived engine that marches through many distinct array sizes
// cannot accumulate 32 stale buffers per size forever. Once full, freed
// buffers go back to the GC instead of the pool.
const defaultPoolCapBytes = 256 << 20

// bufferPool is the size-and-dtype-keyed buffer freelist. It lives on the
// Engine, not the register file, so buffers one session frees recycle into
// allocations made by any other session on the same engine — the shared
// half of the register lifecycle. All methods are safe for concurrent use.
// One mutex guards all buckets: the critical sections are O(1) slice
// pops/pushes, a few per flush per session, far from the per-sweep hot
// path. If profiles ever show this lock under very high session counts,
// shard the buckets by poolKey hash the way the plan cache shards by
// fingerprint (the byte budget then splits per shard).
type bufferPool struct {
	mu          sync.Mutex
	buckets     map[poolKey][]tensor.Buffer // guarded by mu
	pooledBytes int                         // guarded by mu: bytes currently parked across all buckets
	capBytes    int                         // immutable after newBufferPool: pooledBytes bound
}

func newBufferPool(capBytes int) *bufferPool {
	if capBytes <= 0 {
		capBytes = defaultPoolCapBytes
	}
	return &bufferPool{buckets: map[poolKey][]tensor.Buffer{}, capBytes: capBytes}
}

// take removes and returns a pooled buffer for key, or nil when the bucket
// is empty. The caller is responsible for zeroing before reuse.
func (bp *bufferPool) take(key poolKey) tensor.Buffer {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	list := bp.buckets[key]
	if len(list) == 0 {
		return nil
	}
	buf := list[len(list)-1]
	bp.buckets[key] = list[:len(list)-1]
	bp.pooledBytes -= key.n * key.dt.Size()
	return buf
}

// put parks a freed buffer for reuse, unless its bucket is full or the
// byte bound would be exceeded (then the buffer goes back to the GC).
func (bp *bufferPool) put(buf tensor.Buffer) {
	key := poolKey{dt: buf.DType(), n: buf.Len()}
	bytes := key.n * key.dt.Size()
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if len(bp.buckets[key]) < maxPooledPerKey && bp.pooledBytes+bytes <= bp.capBytes {
		bp.buckets[key] = append(bp.buckets[key], buf)
		bp.pooledBytes += bytes
	}
}

// bytes reports the bytes currently parked across all buckets.
func (bp *bufferPool) bytes() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.pooledBytes
}

// drain empties every bucket, handing all parked buffers to the GC —
// the memory-pressure release valve. Future puts refill normally.
func (bp *bufferPool) drain() {
	bp.mu.Lock()
	bp.buckets = map[poolKey][]tensor.Buffer{}
	bp.pooledBytes = 0
	bp.mu.Unlock()
}

// registerFile maps byte-code registers to buffers. Buffers are allocated
// lazily at first definition and released by BH_FREE, mirroring Bohrium's
// base-array lifecycle. Released buffers that the VM itself allocated are
// handed to the engine's shared bufferPool and come back out (zeroed) at
// the next matching allocation — possibly in a different session — so
// flush-per-iteration workloads stop paying an allocation per temporary
// per sweep. Buffers bound from outside (front-end input arrays) are never
// pooled — the caller owns them. The register file itself is per-session
// state: only its machine's goroutines touch it.
type registerFile struct {
	bufs   []tensor.Buffer
	owned  []bool       // owned[r]: bufs[r] was allocated here, safe to recycle
	shared *bufferPool  // engine-owned freelist; nil in zero-value files
	stats  *atomicStats // counters live on the Machine; nil in zero-value files
	eng    *Engine      // live-byte accounting + watermark; nil in zero-value files
	label  string       // faultinject site label (the machine's Config.FaultLabel)
}

func (rf *registerFile) grow(n int) {
	for len(rf.bufs) < n {
		rf.bufs = append(rf.bufs, nil)
		rf.owned = append(rf.owned, false)
	}
}

func (rf *registerFile) bind(r bytecode.RegID, buf tensor.Buffer) {
	rf.grow(int(r) + 1)
	rf.bufs[r] = buf
	rf.owned[r] = false
}

// fits reports whether every register of p that holds a buffer holds one of
// its declared dtype that no other register of p holds: the bindings p's
// plan was compiled for. Only a buffer bound from outside can sit under two
// registers — ensure and the pool never hand out a held one.
func (rf *registerFile) fits(p *bytecode.Program) bool {
	bufs := rf.bufs[:len(p.Regs)]
	for r, buf := range bufs {
		switch {
		case buf == nil:
		case buf.DType() != p.Regs[r].DType:
			return false
		case !rf.owned[r] && (slices.Index(bufs, buf) != r || slices.Contains(bufs[r+1:], buf)):
			return false
		}
	}
	return true
}

func (rf *registerFile) get(r bytecode.RegID) tensor.Buffer {
	if rf == nil || int(r) >= len(rf.bufs) {
		return nil
	}
	return rf.bufs[r]
}

// ensure returns the buffer for r, materializing it from the declaration
// if the register has no buffer yet.
func (rf *registerFile) ensure(p *bytecode.Program, r bytecode.RegID) (tensor.Buffer, error) {
	rf.grow(len(p.Regs))
	if rf.bufs[r] != nil {
		return rf.bufs[r], nil
	}
	info, ok := p.Reg(r)
	if !ok {
		return nil, fmt.Errorf("register %s not declared", r)
	}
	buf, err := rf.acquire(info.DType, info.Len)
	if err != nil {
		return nil, err
	}
	rf.bufs[r] = buf
	rf.owned[r] = true
	return buf, nil
}

// acquire takes a zeroed buffer of n elements of dt: from the shared
// recycle pool when one is parked there (PoolHits), freshly allocated
// otherwise (BuffersAllocated/BytesAllocated).
func (rf *registerFile) acquire(dt tensor.DType, n int) (tensor.Buffer, error) {
	if err := faultinject.Error(faultinject.AllocFail, rf.label); err != nil {
		return nil, err
	}
	bytes := n * dt.Size()
	if rf.shared != nil {
		if buf := rf.shared.take(poolKey{dt: dt, n: n}); buf != nil {
			buf.Zero() // fresh allocations are zeroed; reuse must match
			if rf.eng != nil {
				rf.eng.adoptBytes(bytes)
			}
			if rf.stats != nil {
				rf.stats.poolHits.Add(1)
			}
			return buf, nil
		}
	}
	if rf.eng != nil {
		if err := rf.eng.reserveBytes(bytes); err != nil {
			return nil, err
		}
	}
	buf, err := tensor.NewBuffer(dt, n)
	if err != nil {
		if rf.eng != nil {
			rf.eng.releaseBytes(bytes)
		}
		return nil, err
	}
	if rf.stats != nil {
		rf.stats.buffersAllocated.Add(1)
		rf.stats.bytesAllocated.Add(int64(bytes))
	}
	return buf, nil
}

// free releases register r. VM-owned buffers return to the shared freelist
// for reuse; externally bound buffers are only unlinked.
func (rf *registerFile) free(r bytecode.RegID) {
	if int(r) >= len(rf.bufs) || rf.bufs[r] == nil {
		return
	}
	buf := rf.bufs[r]
	rf.bufs[r] = nil
	if !rf.owned[r] {
		return
	}
	rf.owned[r] = false
	if rf.eng != nil {
		rf.eng.releaseBytes(buf.Len() * buf.DType().Size())
	}
	if rf.shared != nil {
		rf.shared.put(buf)
	}
}
