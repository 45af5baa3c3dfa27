package testgen

import (
	"math/rand"
	"strconv"
)

// RandomGenerator produces non-deterministic random tests in the sense of §3
// of the paper: random sequences of reads and writes with structured data
// backgrounds and address strides, plus randomized test conditions. All
// randomness flows from the seed handed to NewRandomGenerator so runs are
// reproducible.
//
// The generator deliberately mixes several pattern "styles" (uniform random,
// strided sweeps, burst traffic, ping-pong addressing) because a pure
// uniform generator would produce statistically indistinguishable activity
// from test to test and the paper's whole premise is that different tests
// provoke different trip points.
type RandomGenerator struct {
	rng       *rand.Rand
	addrSpace uint32
	limits    ConditionLimits
	count     int

	// FixedConditions, when non-nil, pins every generated test to the given
	// conditions instead of randomizing them. Table 1 fixes Vdd at 1.8 V.
	FixedConditions *Conditions

	// UniformOnly restricts generation to uniform addressing and uniform
	// data — the naive random generator the styled one is ablated against.
	// Styled generation exists because uniform tests are statistically
	// indistinguishable from each other: their trip points cluster tightly
	// and the NN sees almost no severity spread to learn from.
	UniformOnly bool
}

// NewRandomGenerator returns a seeded generator for the given address space.
func NewRandomGenerator(seed int64, addrSpace uint32, limits ConditionLimits) *RandomGenerator {
	if addrSpace == 0 {
		panic("testgen: zero address space")
	}
	return &RandomGenerator{
		rng:       rand.New(rand.NewSource(seed)),
		addrSpace: addrSpace,
		limits:    limits,
	}
}

// dataStyle selects how the data word of a vector is drawn.
type dataStyle int

const (
	dataUniform dataStyle = iota
	dataCheckerboard
	dataStripes
	dataInverting
	dataSparse
)

// addrStyle selects how addresses walk through the array.
type addrStyle int

const (
	addrUniform addrStyle = iota
	addrStride
	addrPingPong
	addrBurst
	addrRowSweep
)

// Next generates the next random test. Sequence length is uniform in
// [MinSequenceLen, MaxSequenceLen].
func (g *RandomGenerator) Next() Test {
	g.count++
	n := MinSequenceLen + g.rng.Intn(MaxSequenceLen-MinSequenceLen+1)
	seq := g.Sequence(n)
	cond := g.Conditions()
	return Test{
		Name: SerialName("RND-", g.count, 4),
		Seq:  seq,
		Cond: cond,
	}
}

// SerialName formats prefix followed by n zero-padded to width digits —
// the string fmt.Sprintf(prefix+"%0*d", width, n) returns for n >= 0 —
// without fmt's reflection, for the names minted once per generated test
// and GA individual.
func SerialName(prefix string, n, width int) string {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(n), 10)
	var buf [48]byte
	b := append(buf[:0], prefix...)
	for pad := width - len(d); pad > 0; pad-- {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// Conditions draws random test conditions inside the limits, or the fixed
// conditions if configured.
func (g *RandomGenerator) Conditions() Conditions {
	if g.FixedConditions != nil {
		return *g.FixedConditions
	}
	uni := func(lo, hi float64) float64 { return lo + g.rng.Float64()*(hi-lo) }
	return Conditions{
		VddV:     uni(g.limits.VddMin, g.limits.VddMax),
		TempC:    uni(g.limits.TempMin, g.limits.TempMax),
		ClockMHz: uni(g.limits.ClockMin, g.limits.ClockMax),
	}
}

// Sequence generates a random sequence of exactly n vectors.
func (g *RandomGenerator) Sequence(n int) Sequence {
	if g.UniformOnly {
		return g.styledSequence(n, dataUniform, addrUniform, 0.3+0.5*g.rng.Float64())
	}
	ds := dataStyle(g.rng.Intn(5))
	as := addrStyle(g.rng.Intn(5))
	readBias := 0.3 + 0.5*g.rng.Float64() // fraction of reads
	return g.styledSequence(n, ds, as, readBias)
}

func (g *RandomGenerator) styledSequence(n int, ds dataStyle, as addrStyle, readBias float64) Sequence {
	seq := make(Sequence, 0, n)
	addr := uint32(g.rng.Intn(int(g.addrSpace)))
	stride := uint32(1 + g.rng.Intn(64))
	burstLen := 2 + g.rng.Intn(14)
	inBurst := 0
	pingA := addr
	pingB := uint32(g.rng.Intn(int(g.addrSpace)))
	invert := false

	for i := 0; i < n; i++ {
		// Address walk.
		switch as {
		case addrUniform:
			addr = uint32(g.rng.Intn(int(g.addrSpace)))
		case addrStride:
			addr = (addr + stride) % g.addrSpace
		case addrPingPong:
			if i%2 == 0 {
				addr = pingA
			} else {
				addr = pingB
			}
		case addrBurst:
			if inBurst == 0 {
				addr = uint32(g.rng.Intn(int(g.addrSpace)))
				inBurst = burstLen
			} else {
				addr = (addr + 1) % g.addrSpace
				inBurst--
			}
		case addrRowSweep:
			addr = (addr + 1) % g.addrSpace
		}

		// Data word.
		var data uint32
		switch ds {
		case dataUniform:
			data = g.rng.Uint32()
		case dataCheckerboard:
			if (addr^uint32(i))&1 == 0 {
				data = 0x55555555
			} else {
				data = 0xAAAAAAAA
			}
		case dataStripes:
			if i&1 == 0 {
				data = 0x0F0F0F0F
			} else {
				data = 0xF0F0F0F0
			}
		case dataInverting:
			if invert {
				data = 0xFFFFFFFF
			} else {
				data = 0x00000000
			}
			invert = !invert
		case dataSparse:
			data = 1 << uint(g.rng.Intn(32))
		}

		op := OpRead
		if g.rng.Float64() > readBias {
			op = OpWrite
		}
		if op == OpRead {
			data = 0
		}
		seq = append(seq, Vector{Op: op, Addr: addr, Data: data})
	}
	return seq
}

// Batch generates n tests.
func (g *RandomGenerator) Batch(n int) []Test {
	out := make([]Test, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// PerturbSequence re-draws roughly rate·len(seq) vectors of seq in place
// and returns it. The GA mutation operator delegates here so mutated
// sequences stay inside the generator's address space; it only ever
// perturbs children it has just built, so no copy is needed.
func (g *RandomGenerator) PerturbSequence(seq Sequence, rate float64) Sequence {
	for i := range seq {
		if g.rng.Float64() < rate {
			op := OpRead
			if g.rng.Float64() < 0.5 {
				op = OpWrite
			}
			v := Vector{Op: op, Addr: uint32(g.rng.Intn(int(g.addrSpace)))}
			if op == OpWrite {
				v.Data = g.rng.Uint32()
			}
			seq[i] = v
		}
	}
	return seq
}

// AddrSpace returns the address-space size the generator draws from.
func (g *RandomGenerator) AddrSpace() uint32 { return g.addrSpace }

// Limits returns the condition limits the generator draws from.
func (g *RandomGenerator) Limits() ConditionLimits { return g.limits }
