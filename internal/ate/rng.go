package ate

import "math/rand"

// The tester's noise RNG is math/rand's default source — the Mitchell–Reeds
// additive lagged-Fibonacci generator behind rand.NewSource — reimplemented
// so that seeding is lazy. rand.NewSource's Seed fills all 607 feedback
// words up front, while a reseeded lot-screen insertion draws only a few
// dozen numbers per die; seeding dominated a cold lot screen. lazySource
// produces exactly the same stream for every seed (the property test pins
// it draw for draw against rand.NewSource) but computes each feedback word
// on first touch.
//
// rand.NewSource seeds word i from three consecutive steps of the
// Park–Miller generator x ← 48271·x mod (2³¹−1), started at the normalized
// seed s and run 20 steps ahead first. Step k from s is s·48271^k mod
// (2³¹−1), so word i is a direct function of s:
//
//	(s·48271^(21+3i) mod m)<<40 ^ (s·48271^(22+3i) mod m)<<20 ^ (s·48271^(23+3i) mod m) ^ rngCooked[i]
//
// with the powers precomputed in seedPow.
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// seedMul is the Park–Miller multiplier of math/rand's seedrand.
	seedMul = 48271
	// seedSkip is how many seedrand steps rand.NewSource discards before
	// the first feedback word.
	seedSkip = 20
	// seedZero replaces a seed that normalizes to 0, as in math/rand.
	seedZero = 89482311
)

// seedPow[k] = 48271^k mod (2³¹−1) for every step k that seeding reaches:
// the last word uses step seedSkip+3·rngLen.
var seedPow = func() (p [seedSkip + 3*rngLen + 1]uint32) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = uint32(mulMod(uint64(p[k-1]), seedMul))
	}
	return p
}()

// mulMod returns a·b mod 2³¹−1 for a, b in [1, 2³¹−2], folding the product
// on the Mersenne modulus instead of dividing. Two folds leave a value in
// [1, 2³¹−1], and 2³¹−1 itself would mean a·b ≡ 0, which the prime modulus
// rules out for nonzero factors.
func mulMod(a, b uint64) uint64 {
	x := a * b             // < 2⁶²
	x = x&int32max + x>>31 // < 2³²−1
	return x&int32max + x>>31
}

// lazySource is a rand.Source64 whose stream equals rand.NewSource's for
// every seed. Seed only records the normalized seed; Uint64 seeds each
// feedback word the first time it touches it. Not safe for concurrent use.
//
// No per-word bookkeeping is needed to know which words are fresh, because
// the register's access pattern after Seed is fixed: draw k (1-based)
// writes word feed = 334−k and reads word tap = 607−k. Over the first 334
// draws the feed word has never been touched, and the tap word is fresh
// for k ≤ 273 and was written as a feed word 273 draws earlier after that.
// By draw 334 every word has been seeded (words 0–333 as feed, 334–606 as
// tap), so later draws run exactly like math/rand's.
type lazySource struct {
	tap, feed int
	seed      uint64 // normalized seed in [1, 2³¹−2]
	drawn     int    // draws since Seed, counted up to rngLen−rngTap
	vec       [rngLen]int64
}

// newLazySource returns a source seeded with seed.
func newLazySource(seed int64) *lazySource {
	s := new(lazySource)
	s.Seed(seed)
	return s
}

// newNoiseRNG returns the tester's noise generator: a *rand.Rand over a
// lazySource, drawing the same numbers as rand.New(rand.NewSource(seed)).
func newNoiseRNG(seed int64) *rand.Rand { return rand.New(newLazySource(seed)) }

// Seed restarts the stream at seed in O(1).
func (r *lazySource) Seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap
	r.drawn = 0
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = seedZero
	}
	r.seed = uint64(seed)
}

// seedWord returns feedback word i as rand.NewSource's Seed initializes it.
func (r *lazySource) seedWord(i int) int64 {
	k := seedSkip + 1 + 3*i
	u := int64(mulMod(r.seed, uint64(seedPow[k]))) << 40
	u ^= int64(mulMod(r.seed, uint64(seedPow[k+1]))) << 20
	u ^= int64(mulMod(r.seed, uint64(seedPow[k+2])))
	return u ^ rngCooked[i]
}

// Uint64 returns the next 64-bit value of the stream.
func (r *lazySource) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	var x int64
	if r.drawn < rngLen-rngTap {
		// Still seeding; see the type comment for which words are fresh.
		r.drawn++
		t := r.vec[r.tap]
		if r.drawn <= rngTap {
			t = r.seedWord(r.tap)
			r.vec[r.tap] = t
		}
		x = r.seedWord(r.feed) + t
	} else {
		x = r.vec[r.feed] + r.vec[r.tap]
	}
	r.vec[r.feed] = x
	return uint64(x)
}

// Int63 returns the next non-negative 63-bit value of the stream.
func (r *lazySource) Int63() int64 { return int64(r.Uint64() & rngMask) }
