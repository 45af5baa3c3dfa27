package genetic

import (
	"math/rand"

	"repro/internal/testgen"
)

// Operators bundles the variation operators for the two chromosome types.
// Sequence chromosomes recombine by cut-and-splice and mutate through the
// random generator (so mutated vectors stay inside the device's address
// space); condition chromosomes recombine by blend crossover and mutate
// with clamped gaussian noise.
type Operators struct {
	rng    *rand.Rand
	gen    *testgen.RandomGenerator
	limits testgen.ConditionLimits

	// SeqMutationRate is the per-vector redraw probability.
	SeqMutationRate float64
	// BlockMutationRate is the probability of a structural sequence
	// mutation (splice-in of a fresh block, or block duplication).
	BlockMutationRate float64
	// CondSigma scales the gaussian condition mutation relative to each
	// condition's admissible span.
	CondSigma float64
	// BlendAlpha is the BLX-α exploration margin for condition crossover.
	BlendAlpha float64
}

// NewOperators builds operators with the conventional defaults.
func NewOperators(seed int64, gen *testgen.RandomGenerator) *Operators {
	return &Operators{
		rng:               rand.New(rand.NewSource(seed)),
		gen:               gen,
		limits:            gen.Limits(),
		SeqMutationRate:   0.02,
		BlockMutationRate: 0.3,
		CondSigma:         0.08,
		BlendAlpha:        0.25,
	}
}

// CrossoverSeq recombines two sequence chromosomes with proportional
// one-point cut-and-splice: the cut sits at the same relative position in
// both parents so the offspring length stays within the parents' range.
// Only the child headed by a is built; its twin (b's head, a's tail) is
// never used, but the generator draw that clamping the twin would make is
// still made, so the random stream matches two-child recombination.
func (o *Operators) CrossoverSeq(a, b testgen.Sequence) testgen.Sequence {
	if len(a) == 0 || len(b) == 0 {
		return a.Clone()
	}
	frac := o.rng.Float64()
	ca := int(frac * float64(len(a)))
	cb := int(frac * float64(len(b)))
	child := make(testgen.Sequence, 0, ca+len(b)-cb)
	child = append(child, a[:ca]...)
	child = append(child, b[cb:]...)
	child = o.clampLen(child)
	if twin := cb + len(a) - ca; twin < testgen.MinSequenceLen {
		o.gen.Sequence(testgen.MinSequenceLen - twin)
	}
	return child
}

// clampLen keeps sequences inside the paper's 100–1000 cycle regime.
func (o *Operators) clampLen(s testgen.Sequence) testgen.Sequence {
	if len(s) > testgen.MaxSequenceLen {
		return s[:testgen.MaxSequenceLen]
	}
	for len(s) < testgen.MinSequenceLen {
		s = append(s, o.gen.Sequence(testgen.MinSequenceLen-len(s))...)
	}
	return s
}

// MutateSeq applies per-vector redraws plus, with BlockMutationRate
// probability, one structural mutation: either a fresh random block splice
// or a tandem duplication of an existing block (duplication concentrates
// activity, which is how the GA discovers resonant bursts). It mutates s in
// place — the caller hands over a sequence it owns, such as a freshly bred
// child — and returns the length-clamped result.
func (o *Operators) MutateSeq(s testgen.Sequence) testgen.Sequence {
	out := o.gen.PerturbSequence(s, o.SeqMutationRate)
	if o.rng.Float64() < o.BlockMutationRate && len(out) > 8 {
		blockLen := 4 + o.rng.Intn(28)
		if blockLen > len(out)/2 {
			blockLen = len(out) / 2
		}
		pos := o.rng.Intn(len(out) - blockLen)
		if o.rng.Float64() < 0.5 {
			// Splice a fresh random block over [pos, pos+blockLen).
			fresh := o.gen.Sequence(blockLen)
			copy(out[pos:pos+blockLen], fresh)
		} else {
			// Duplicate the block immediately after itself.
			copy(out[pos+blockLen:], out[pos:pos+blockLen])
		}
	}
	return o.clampLen(out)
}

// CrossoverCond blends two condition chromosomes with BLX-α: each gene is
// drawn uniformly from the interval spanned by the parents, extended by
// alpha on both sides, then clamped to the limits.
func (o *Operators) CrossoverCond(a, b testgen.Conditions) testgen.Conditions {
	blend := func(x, y float64) float64 {
		lo, hi := x, y
		if lo > hi {
			lo, hi = hi, lo
		}
		span := hi - lo
		lo -= o.BlendAlpha * span
		hi += o.BlendAlpha * span
		return lo + o.rng.Float64()*(hi-lo)
	}
	return o.limits.Clamp(testgen.Conditions{
		VddV:     blend(a.VddV, b.VddV),
		TempC:    blend(a.TempC, b.TempC),
		ClockMHz: blend(a.ClockMHz, b.ClockMHz),
	})
}

// MutateCond adds clamped gaussian noise scaled to each condition's span.
func (o *Operators) MutateCond(c testgen.Conditions) testgen.Conditions {
	l := o.limits
	return l.Clamp(testgen.Conditions{
		VddV:     c.VddV + o.rng.NormFloat64()*o.CondSigma*(l.VddMax-l.VddMin),
		TempC:    c.TempC + o.rng.NormFloat64()*o.CondSigma*(l.TempMax-l.TempMin),
		ClockMHz: c.ClockMHz + o.rng.NormFloat64()*o.CondSigma*(l.ClockMax-l.ClockMin),
	})
}

// RandomIndividual draws a fresh random candidate (population restarts,
// initial fill beyond the seeds).
func (o *Operators) RandomIndividual(fixedCond *testgen.Conditions) (testgen.Sequence, testgen.Conditions) {
	n := testgen.MinSequenceLen + o.rng.Intn(testgen.MaxSequenceLen-testgen.MinSequenceLen+1)
	seq := o.gen.Sequence(n)
	var cond testgen.Conditions
	if fixedCond != nil {
		cond = *fixedCond
	} else {
		cond = o.gen.Conditions()
	}
	return seq, cond
}

// Tournament picks the fittest of k uniformly drawn individuals.
func (o *Operators) Tournament(pop []*Individual, k int) *Individual {
	if k < 1 {
		k = 2
	}
	best := pop[o.rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		c := pop[o.rng.Intn(len(pop))]
		if c.Fitness > best.Fitness {
			best = c
		}
	}
	return best
}

// Chance returns true with probability p.
func (o *Operators) Chance(p float64) bool { return o.rng.Float64() < p }
