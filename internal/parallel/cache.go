package parallel

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// MemoCache memoizes scalar measurement results keyed by a 64-bit
// structural fingerprint — the substrate of the "never re-measure an
// unchanged test" rule. The GA fitness engine keys it with
// testgen.Test.Fingerprint so elites, clones and migrants that reappear in
// later generations reuse their measured fitness instead of spending ATE
// measurements again.
//
// The entry map is sharded into a power-of-two number of lock stripes
// selected by the low fingerprint bits, so a large worker fleet doing
// concurrent lookups never serializes on a single mutex. Sharding is pure
// mechanics: hit/miss/dropped accounting stays exact (atomic counters) and
// the retained set under a SetLimit capacity is a pure function of the
// Put order, identical at 1 stripe and at N (pinned by the shard-count
// invariance property test).
//
// Reads and writes are safe from any goroutine. Determinism callers care
// about: lookups may race — a Get changes no entry, and the hit/miss totals
// are sums — but results are inserted at deterministic points (for batch
// engines, after the batch completes, in task order), never concurrently
// from racing workers.
type MemoCache struct {
	shards []memoShard
	mask   uint64

	// count is the total entry count across shards; Put consults it for
	// the SetLimit capacity decision so the retained set does not depend
	// on how keys distribute over stripes.
	count atomic.Int64
	limit atomic.Int64 // 0 = unbounded

	hits    atomic.Int64
	miss    atomic.Int64
	dropped atomic.Int64
}

// memoShard is one lock stripe. Padding keeps neighbouring stripes off the
// same cache line under write-heavy contention.
type memoShard struct {
	mu sync.RWMutex
	m  map[uint64]float64
	_  [24]byte
}

// defaultStripes sizes the stripe count for the machine: the next power of
// two at or above 4× the CPU count, capped at 256. One stripe per few
// concurrent workers keeps collision probability low without bloating the
// empty cache.
func defaultStripes() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > 256 {
		n = 256
	}
	return 1 << bits.Len(uint(n-1))
}

// NewMemoCache returns an empty, unbounded cache with a machine-sized
// stripe count.
func NewMemoCache() *MemoCache {
	return NewMemoCacheStripes(defaultStripes())
}

// NewMemoCacheStripes returns an empty, unbounded cache with exactly n lock
// stripes (rounded up to the next power of two; values below 1 select 1).
// Behaviour is identical for every stripe count; the knob exists for the
// invariance tests and for callers that know their concurrency profile.
func NewMemoCacheStripes(n int) *MemoCache {
	if n < 1 {
		n = 1
	}
	n = 1 << bits.Len(uint(n-1))
	c := &MemoCache{shards: make([]memoShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]float64)
	}
	return c
}

// shard selects the stripe for a key. The fingerprints are FNV-1a outputs,
// so the low bits are already well mixed.
func (c *MemoCache) shard(key uint64) *memoShard {
	return &c.shards[key&c.mask]
}

// Stripes returns the number of lock stripes.
func (c *MemoCache) Stripes() int { return len(c.shards) }

// SetLimit caps the entry count at n (n <= 0 removes the cap). At
// capacity, Put rejects *new* keys instead of evicting old ones:
// random-replacement eviction would make which measurements get memoized —
// and therefore the hit/miss cost accounting — depend on map iteration
// order, while reject-at-capacity keeps the retained set a pure function
// of insertion order. Overwrites of already-present keys always succeed.
// Entries beyond an already-exceeded new cap stay until Reset.
func (c *MemoCache) SetLimit(n int) {
	if n < 0 {
		n = 0
	}
	c.limit.Store(int64(n))
}

// Limit returns the current entry cap (0 = unbounded).
func (c *MemoCache) Limit() int {
	return int(c.limit.Load())
}

// Get returns the memoized value for key, counting a hit or a miss.
func (c *MemoCache) Get(key uint64) (float64, bool) {
	s := c.shard(key)
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.miss.Add(1)
	}
	return v, ok
}

// Put memoizes value under key, overwriting any previous entry. At the
// SetLimit capacity a new key is rejected (counted by Dropped) so the
// caller simply re-measures it next time. The capacity decision reads the
// cross-shard total, so the retained set is the same no matter how keys
// stripe.
func (c *MemoCache) Put(key uint64, value float64) {
	s := c.shard(key)
	s.mu.Lock()
	if _, exists := s.m[key]; exists {
		s.m[key] = value
		s.mu.Unlock()
		return
	}
	if limit := c.limit.Load(); limit > 0 {
		// Reserve a slot before inserting: concurrent Puts each CAS their
		// own increment, so the cap is never overshot even under racing
		// writers on different stripes.
		for {
			cur := c.count.Load()
			if cur >= limit {
				s.mu.Unlock()
				c.dropped.Add(1)
				return
			}
			if c.count.CompareAndSwap(cur, cur+1) {
				break
			}
		}
	} else {
		c.count.Add(1)
	}
	s.m[key] = value
	s.mu.Unlock()
}

// Len returns the number of memoized entries.
func (c *MemoCache) Len() int {
	return int(c.count.Load())
}

// Hits returns how many Get calls found an entry.
func (c *MemoCache) Hits() int64 { return c.hits.Load() }

// Misses returns how many Get calls found nothing.
func (c *MemoCache) Misses() int64 { return c.miss.Load() }

// Dropped returns how many Put calls were rejected at the SetLimit
// capacity.
func (c *MemoCache) Dropped() int64 { return c.dropped.Load() }

// Range calls fn for every memoized entry until fn returns false. The
// iteration order is unspecified (it walks stripes and Go maps); callers
// needing a stable order must sort the keys themselves. Do not call Get,
// Put or Reset from fn.
func (c *MemoCache) Range(fn func(key uint64, value float64) bool) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for k, v := range s.m {
			if !fn(k, v) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}

// Reset empties the cache and zeroes the hit/miss/dropped counters,
// keeping the configured limit. Batch engines call it between independent
// runs that must not share measured values.
func (c *MemoCache) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		clear(s.m)
		s.mu.Unlock()
	}
	c.count.Store(0)
	c.hits.Store(0)
	c.miss.Store(0)
	c.dropped.Store(0)
}
