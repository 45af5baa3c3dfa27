package parallel

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/proptest"
)

func TestMemoCacheStripeCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {100, 128},
	} {
		if got := NewMemoCacheStripes(tc.in).Stripes(); got != tc.want {
			t.Errorf("NewMemoCacheStripes(%d).Stripes() = %d, want %d", tc.in, got, tc.want)
		}
	}
	if s := NewMemoCache().Stripes(); s < 1 || s&(s-1) != 0 {
		t.Errorf("default stripe count %d not a positive power of two", s)
	}
}

func TestMemoCacheRange(t *testing.T) {
	c := NewMemoCacheStripes(8)
	want := map[uint64]float64{}
	for i := uint64(0); i < 100; i++ {
		k := i * 0x9e3779b97f4a7c15
		c.Put(k, float64(i))
		want[k] = float64(i)
	}
	got := map[uint64]float64{}
	c.Range(func(k uint64, v float64) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Range entry %#x = %v, want %v", k, got[k], v)
		}
	}
	// Early termination.
	n := 0
	c.Range(func(uint64, float64) bool { n++; return false })
	if n != 1 {
		t.Errorf("Range after false visited %d entries, want 1", n)
	}
}

// cacheOp is one scripted cache operation for the invariance property.
type cacheOp struct {
	kind  int // 0 = Put, 1 = Get, 2 = SetLimit
	key   uint64
	value float64
	limit int
}

// applyOps runs the script serially and returns the cache.
func applyOps(c *MemoCache, ops []cacheOp) {
	for _, op := range ops {
		switch op.kind {
		case 0:
			c.Put(op.key, op.value)
		case 1:
			c.Get(op.key)
		case 2:
			c.SetLimit(op.limit)
		}
	}
}

// The shard-count invariance property: any serial sequence of Put/Get/
// SetLimit operations leaves 1-stripe and N-stripe caches with identical
// hits, misses, dropped counts, lengths and retained entry sets. This is
// the contract that makes sharding a pure performance change.
func TestMemoCacheShardCountInvariance(t *testing.T) {
	proptest.Check(t, 60, func(pt *proptest.T) {
		nOps := pt.IntRange(1, 120)
		// A small key universe forces overwrites, hits and capacity
		// rejections to actually occur.
		keys := make([]uint64, pt.IntRange(1, 24))
		for i := range keys {
			keys[i] = pt.Uint64()
		}
		ops := make([]cacheOp, nOps)
		for i := range ops {
			switch pt.Intn(10) {
			case 0:
				ops[i] = cacheOp{kind: 2, limit: pt.IntRange(0, 12)}
			case 1, 2, 3:
				ops[i] = cacheOp{kind: 1, key: proptest.Pick(pt, keys)}
			default:
				ops[i] = cacheOp{kind: 0, key: proptest.Pick(pt, keys), value: pt.Float01()}
			}
		}
		pt.Logf("%d ops over %d keys", nOps, len(keys))

		for _, stripes := range []int{2, 8, 64} {
			one := NewMemoCacheStripes(1)
			many := NewMemoCacheStripes(stripes)
			applyOps(one, ops)
			applyOps(many, ops)
			if one.Hits() != many.Hits() || one.Misses() != many.Misses() {
				pt.Fatalf("stripes=%d: hits/misses %d/%d, want %d/%d",
					stripes, many.Hits(), many.Misses(), one.Hits(), one.Misses())
			}
			if one.Dropped() != many.Dropped() {
				pt.Fatalf("stripes=%d: dropped %d, want %d", stripes, many.Dropped(), one.Dropped())
			}
			if one.Len() != many.Len() {
				pt.Fatalf("stripes=%d: len %d, want %d", stripes, many.Len(), one.Len())
			}
			retained := map[uint64]float64{}
			one.Range(func(k uint64, v float64) bool { retained[k] = v; return true })
			many.Range(func(k uint64, v float64) bool {
				if want, ok := retained[k]; !ok || want != v {
					pt.Errorf("stripes=%d: entry %#x = %v, 1-stripe has %v (present %v)",
						stripes, k, v, want, ok)
				}
				return true
			})
		}
	})
}

// Concurrent hammering across stripes must never overshoot the capacity and
// must keep counter identities (every Put is retained or dropped).
func TestMemoCacheShardedConcurrentLimit(t *testing.T) {
	c := NewMemoCacheStripes(16)
	const limit = 64
	c.SetLimit(limit)
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := uint64(g*perG + i)
				c.Put(k, float64(i))
				c.Get(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > limit {
		t.Errorf("len %d exceeds limit %d", c.Len(), limit)
	}
	if got := c.Len() + int(c.Dropped()); got != goroutines*perG {
		t.Errorf("retained+dropped = %d, want %d", got, goroutines*perG)
	}
	if got := c.Hits() + c.Misses(); got != goroutines*perG {
		t.Errorf("hits+misses = %d, want %d", got, goroutines*perG)
	}
}

func BenchmarkMemoCacheContention(b *testing.B) {
	for _, stripes := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("stripes-%d", stripes), func(b *testing.B) {
			c := NewMemoCacheStripes(stripes)
			for i := uint64(0); i < 4096; i++ {
				c.Put(i*0x9e3779b97f4a7c15, float64(i))
			}
			b.RunParallel(func(pb *testing.PB) {
				var i uint64
				for pb.Next() {
					i++
					c.Get((i % 8192) * 0x9e3779b97f4a7c15)
					if i&15 == 0 {
						c.Put(i*0x6c62272e07bb0142, float64(i))
					}
				}
			})
		})
	}
}
