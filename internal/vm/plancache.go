package vm

import (
	"container/list"
	"slices"
	"sync"

	"bohrium/internal/bytecode"
)

// The plan cache is the middleware's kernel-cache analogue: a batch whose
// structure was already analyzed and compiled re-executes from its Plan
// instead of being re-lowered. Entries are keyed by the batch's
// structural Fingerprint plus its constant vector:
//
//   - A plan compiled from a batch the optimizer left untouched
//     (parametric entry) matches ANY constant values of its dtypes —
//     executing its plan under the new vector is exactly executing the
//     new batch.
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
// A cached plan is immutable and holds no constant value (Plan), so a hit
// never touches its entry beyond the LRU order: whatever vector the batch
// carries, the caller executes the one stored plan under it.

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
	vals       []bytecode.Constant // the inserting batch's vector, never written after insert
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
// parametric hit returns the same plan under any vector of its dtypes:
// the caller executes it under consts. Counters: PlanHits / PlanMisses,
// counted on this machine.
func (m *Machine) LookupPlan(fp bytecode.Fingerprint, consts []bytecode.Constant, accept func(meta any) bool) (*Plan, any, bool) {
	if !m.PlanCacheEnabled() {
		return nil, nil, false
	}
	s := m.eng.plans.shardFor(fp)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, el := range s.byFP[fp] {
		e := el.Value.(*planEntry)
		eq := bytecode.Constant.Equal
		if e.parametric {
			eq = sameDType
		}
		if !slices.EqualFunc(e.vals, consts, eq) || accept != nil && !accept(e.meta) {
			continue
		}
		s.order.MoveToFront(el)
		m.stats.planHits.Add(1)
		return e.plan, e.meta, true
	}
	m.stats.planMisses.Add(1)
	return nil, nil, false
}

// InsertPlan stores a freshly compiled plan (nil for a batch that
// optimized to an empty program) under fp and its constant vector.
// parametric marks plans compiled from batches the optimizer left
// untouched; only those run under other constants than their own. The
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
		back := s.order.Back()
		lru := s.order.Remove(back).(*planEntry).fp
		bucket := s.byFP[lru]
		i := slices.Index(bucket, back)
		if bucket = slices.Delete(bucket, i, i+1); len(bucket) > 0 {
			s.byFP[lru] = bucket
		} else {
			delete(s.byFP, lru)
		}
		m.stats.planEvictions.Add(1)
	}
}

// sameDType reports whether two constants have one dtype: a parametric
// plan runs under any vector of its constants' dtypes.
func sameDType(x, y bytecode.Constant) bool { return x.DType == y.DType }
