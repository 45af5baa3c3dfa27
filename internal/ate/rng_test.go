package ate

import (
	"math"
	"math/rand"
	"testing"
)

// propertySeeds returns the seeds the lazy-source property test covers: the
// normalization edge cases of math/rand's seeding (0, negatives, the
// modulus 2³¹−1 and its multiples, values above 2³¹, the int64 extremes)
// plus a deterministic spread of arbitrary int64 seeds, n in total.
func propertySeeds(n int) []int64 {
	const m = int32max
	seeds := []int64{
		0, 1, -1, 2, -2, seedZero, -seedZero,
		m, -m, m - 1, -(m - 1), m + 1, -(m + 1),
		2 * m, -2 * m, 3 * m, 1000 * m, -1000 * m, m * (math.MaxInt64 / m),
		1 << 31, 1<<31 + 1, 1 << 32, 1<<32 - 1, 1 << 40, 1 << 62, -(1 << 62),
		math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1,
		math.MaxInt32, math.MinInt32,
	}
	gen := rand.New(rand.NewSource(20051))
	for len(seeds) < n {
		switch len(seeds) % 4 {
		case 0:
			seeds = append(seeds, gen.Int63()-gen.Int63()) // full int64 range
		case 1:
			seeds = append(seeds, gen.Int63n(1<<31)) // small positive
		case 2:
			seeds = append(seeds, -gen.Int63n(1<<31)) // small negative
		default:
			seeds = append(seeds, gen.Int63n(1000)*m+gen.Int63n(3)-1) // near a multiple of m
		}
	}
	return seeds
}

// drawMixed pulls n draws of mixed kinds from r — every *rand.Rand path
// the tester or its callers use — and returns them as bit patterns.
func drawMixed(r *rand.Rand, n int, out []uint64) []uint64 {
	out = out[:0]
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0:
			out = append(out, math.Float64bits(r.NormFloat64()))
		case 1:
			out = append(out, math.Float64bits(r.Float64()))
		case 2:
			out = append(out, uint64(r.Intn(1000+i)))
		case 3:
			out = append(out, uint64(r.Int63()))
		default:
			out = append(out, r.Uint64())
		}
	}
	return out
}

func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := propertySeeds(20000)
	lazy := newNoiseRNG(0)
	var got, want []uint64
	for i, s := range seeds {
		// Most seeds draw a short, lot-screen-like stream; the edge seeds
		// and every 50th seed run past two full turns of the 607-word
		// register so the feedback wraps and written words are read back.
		n := 48
		if i < 40 || i%50 == 0 {
			n = 2*rngLen + 100
		}
		lazy.Seed(s) // the same source, reseeded over and over
		got = drawMixed(lazy, n, got)
		want = drawMixed(rand.New(rand.NewSource(s)), n, want)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("seed %d: draw %d = %#x, math/rand %#x", s, k, got[k], want[k])
			}
		}
	}
}

func TestLazySourceReseedAtEveryPhase(t *testing.T) {
	// Reseed one source after streams that stop at each boundary of its
	// seeding phase (the first 273 draws seed the tap word, draws 274–334
	// reuse it, later draws are plain): no word a previous seeding left
	// behind may leak into the next stream.
	src := newLazySource(7)
	ref := rand.NewSource(7).(rand.Source64)
	cuts := []int{0, 1, 2, rngTap - 1, rngTap, rngTap + 1, rngLen - rngTap - 1, rngLen - rngTap,
		rngLen - rngTap + 1, rngLen - 1, rngLen, rngLen + 1, 2 * rngLen, 5*rngLen + 3}
	for i, cut := range cuts {
		for _, next := range []int64{int64(i) + 100, -int64(i) - 100} {
			for k := 0; k < cut; k++ {
				if g, w := src.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("cut %d: draw %d = %#x, math/rand %#x", cut, k, g, w)
				}
			}
			src.Seed(next)
			ref.Seed(next)
			for k := 0; k < 2*rngLen+50; k++ {
				if g, w := src.Uint64(), ref.Uint64(); g != w {
					t.Fatalf("reseed to %d after %d draws: draw %d = %#x, math/rand %#x", next, cut, k, g, w)
				}
			}
		}
	}
}

func TestReseedAllocatesNothing(t *testing.T) {
	a := testATE(t)
	a.Heating = DefaultThermal()
	seed := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		seed++
		a.Reseed(seed)
		a.noise(1)
	})
	if allocs != 0 {
		t.Errorf("Reseed allocates %.1f times per call, want 0", allocs)
	}
}

func BenchmarkReseedAndDraw(b *testing.B) {
	for _, impl := range []struct {
		name string
		rng  *rand.Rand
	}{
		{"lazy", newNoiseRNG(1)},
		{"math-rand", rand.New(rand.NewSource(1))},
	} {
		b.Run(impl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				impl.rng.Seed(int64(i))
				for k := 0; k < 50; k++ {
					impl.rng.NormFloat64()
				}
			}
		})
	}
}
