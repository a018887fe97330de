package vm

import (
	"container/list"
	"sync"

	"bohrium/internal/bytecode"
)

// The plan cache is the middleware's kernel-cache analogue: a batch whose
// structure was already analyzed and compiled re-executes from its Plan
// instead of being re-lowered. Entries are keyed by the batch's
// structural Fingerprint plus its constant vector:
//
//   - A plan compiled from a batch the optimizer left untouched
//     (parametric entry) matches ANY constant values — replaying its
//     program with the new constants is exactly executing the new batch.
//   - A plan the optimizer rewrote (baked entry) matches only the exact
//     constant vector it was compiled from: rules inspect constant
//     values (merging, folding, CSE, power expansion), so a different
//     vector could have rewritten differently.
//
// Several entries may share one fingerprint (same structure, different
// baked vectors).
//
// On a shared Engine the cache serves many sessions at once, so it is
// sharded by fingerprint: each shard has its own mutex and its own LRU
// list, and eviction is LRU within a shard. Caches sized below the
// default capacity collapse to a single shard (minShardedCapacity),
// preserving exact global-LRU behavior where the caller sized capacity
// tightly to a working set. The capacity bound is
// therefore per shard (total/shards): a hot working set whose
// fingerprints collide into one shard can evict there while other
// shards sit under-full — the standard sharding tradeoff, bought for
// lock-free coexistence of sessions on different shards. Size
// PlanCacheSize with headroom (shards hold ~planShardTarget entries
// each) rather than to the exact working-set count.
//
// A cached plan is immutable. A parametric hit whose constant vector
// differs from the entry's current one does not patch the stored plan in
// place — another session (or a queued async execution in this session)
// may be executing it right now — it clones the plan, patches the clone,
// and swaps the entry to the clone under the shard lock. Steady-state
// iterations with unchanged constants pay no clone at all.

// DefaultPlanCacheSize is the entry cap when Config.PlanCacheSize is zero.
const DefaultPlanCacheSize = 64

// planShardTarget is the per-shard capacity the shard count aims for; a
// cache of the default 64 entries gets 8 shards of 8.
const planShardTarget = 8

// maxPlanShards bounds the shard count for very large caches.
const maxPlanShards = 16

// minShardedCapacity is the capacity below which the cache stays a single
// shard. A caller that sizes PlanCacheSize tightly to a known working set
// is promising itself "this many entries fit"; splitting such a small
// budget across shards could evict entries that nominally fit whenever
// fingerprints collide into one shard. At or above the default capacity
// the budget is headroom, not a fit-guarantee, and sharding buys
// cross-session concurrency.
const minShardedCapacity = DefaultPlanCacheSize

type planEntry struct {
	fp         bytecode.Fingerprint
	vals       []bytecode.Constant
	parametric bool
	plan       *Plan // nil: the batch is known to optimize to nothing
	meta       any   // front-end bookkeeping, opaque to the VM
}

type planShard struct {
	mu    sync.Mutex
	cap   int                                      // guarded by mu
	order *list.List                               // guarded by mu: of *planEntry; front = most recently used
	byFP  map[bytecode.Fingerprint][]*list.Element // guarded by mu
}

type planCache struct {
	shards []*planShard
}

func newPlanCache(capacity int) *planCache {
	n := 1
	if capacity >= minShardedCapacity {
		n = capacity / planShardTarget
		if n > maxPlanShards {
			n = maxPlanShards
		}
	}
	c := &planCache{shards: make([]*planShard, n)}
	for i := range c.shards {
		capI := capacity / n
		if i < capacity%n {
			capI++
		}
		c.shards[i] = &planShard{
			cap:   capI,
			order: list.New(),
			byFP:  map[bytecode.Fingerprint][]*list.Element{},
		}
	}
	return c
}

// unlink removes one element from the shard's LRU order and fingerprint
// bucket. Call with the shard lock held; unlinking an already-removed
// element is a no-op.
func (s *planShard) unlink(el *list.Element) {
	e := el.Value.(*planEntry)
	s.order.Remove(el) // no-op if el was already evicted
	bucket := s.byFP[e.fp]
	for i, b := range bucket {
		if b == el {
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(s.byFP, e.fp)
	} else {
		s.byFP[e.fp] = bucket
	}
}

func (c *planCache) shardFor(fp bytecode.Fingerprint) *planShard {
	return c.shards[int(fp[0])%len(c.shards)]
}

// purge drops every cached plan across all shards — the memory-pressure
// release valve. In-flight executions of purged plans are unaffected
// (plans are immutable); future lookups recompile and refill normally.
func (c *planCache) purge() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.order.Init()
		s.byFP = map[bytecode.Fingerprint][]*list.Element{}
		s.mu.Unlock()
	}
}

func (c *planCache) len() int {
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += s.order.Len()
		s.mu.Unlock()
	}
	return total
}

// PlanCacheEnabled reports whether this machine caches plans: the engine
// must have a cache (EngineConfig.PlanCacheSize not negative) and the
// machine must not have opted out (Config.PlanCacheSize not negative).
// Front-ends consult it before paying for fingerprint computation.
func (m *Machine) PlanCacheEnabled() bool { return m.useCache && m.eng.plans != nil }

// PlanCacheLen returns the number of plans cached on this machine's
// engine (shared machines see every session's entries).
func (m *Machine) PlanCacheLen() int {
	if m.eng.plans == nil {
		return 0
	}
	return m.eng.plans.len()
}

// LookupPlan finds a cached plan for the batch identified by fp and its
// constant vector. accept (optional) filters candidates by the metadata
// stored at insert time — front-ends use it to reject plans whose
// scratch registers have since been repurposed. On a hit the entry moves
// to the LRU front and the stored plan and metadata are returned; the
// plan is nil when the batch is known to optimize to nothing. A
// parametric hit under a different constant vector returns a patched
// clone via Plan.WithConstants (and caches it for the next identical
// lookup) — the previously returned plan is never mutated, so callers may
// still be executing it, on this session or any other sharing the engine.
// Counters: PlanHits / PlanMisses, counted on this machine.
func (m *Machine) LookupPlan(fp bytecode.Fingerprint, consts []bytecode.Constant, accept func(meta any) bool) (*Plan, any, bool) {
	if !m.PlanCacheEnabled() {
		return nil, nil, false
	}
	s := m.eng.plans.shardFor(fp)

	// Find the candidate and snapshot it under the shard lock; the clone
	// and nest recompilation of a constant patch run OUTSIDE the lock,
	// so sessions landing on one shard don't serialize behind each
	// other's analysis work.
	s.mu.Lock()
	var elem *list.Element
	var entry *planEntry
	var plan *Plan
	var meta any
	needPatch := false
	for _, el := range s.byFP[fp] {
		e := el.Value.(*planEntry)
		if !e.parametric && !constantsEqual(e.vals, consts) {
			continue
		}
		if accept != nil && !accept(e.meta) {
			continue
		}
		elem, entry, plan, meta = el, e, e.plan, e.meta
		needPatch = e.parametric && plan != nil && !constantsEqual(e.vals, consts)
		s.order.MoveToFront(el)
		break
	}
	s.mu.Unlock()
	if entry == nil {
		m.stats.planMisses.Add(1)
		return nil, nil, false
	}
	if needPatch {
		patched, err := plan.WithConstants(consts)
		if err != nil {
			// Digest collision or corrupted entry. Unlink it — it was
			// just promoted to MRU, so leaving it in place would shadow
			// healthy same-fingerprint entries forever — and report a
			// miss so the caller recompiles.
			s.mu.Lock()
			s.unlink(elem)
			s.mu.Unlock()
			m.stats.planMisses.Add(1)
			return nil, nil, false
		}
		plan = patched
		// Swap the entry to the patched clone so the next lookup with the
		// same vector pays nothing. Racing sessions last-write-wins; a
		// concurrently evicted entry is updated harmlessly. plan and vals
		// move together, always under the lock.
		s.mu.Lock()
		entry.plan = patched
		entry.vals = append([]bytecode.Constant(nil), consts...)
		s.mu.Unlock()
	}
	m.stats.planHits.Add(1)
	return plan, meta, true
}

// InsertPlan stores a freshly compiled plan (nil for a batch that
// optimized to an empty program) under fp and its constant vector.
// parametric marks plans compiled from batches the optimizer left
// untouched; only those may be replayed with different constants. The
// caller must treat the plan as immutable from here on. Over shard
// capacity, the shard's least recently used entry is dropped
// (PlanEvictions, counted on the inserting machine).
func (m *Machine) InsertPlan(fp bytecode.Fingerprint, consts []bytecode.Constant, parametric bool, pl *Plan, meta any) {
	if !m.PlanCacheEnabled() {
		return
	}
	e := &planEntry{
		fp:         fp,
		vals:       append([]bytecode.Constant(nil), consts...),
		parametric: parametric,
		plan:       pl,
		meta:       meta,
	}
	s := m.eng.plans.shardFor(fp)
	s.mu.Lock()
	defer s.mu.Unlock()
	el := s.order.PushFront(e)
	s.byFP[fp] = append(s.byFP[fp], el)
	for s.order.Len() > s.cap {
		s.unlink(s.order.Back())
		m.stats.planEvictions.Add(1)
	}
}

func constantsEqual(a, b []bytecode.Constant) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
