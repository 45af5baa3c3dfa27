package genetic

import (
	"reflect"
	"testing"

	"repro/internal/testgen"
)

func TestCrossoverSeqLengthsAndValidity(t *testing.T) {
	ops := newOps(1)
	gen := testgen.NewRandomGenerator(2, 4096, testgen.DefaultConditionLimits())
	a, b := gen.Sequence(300), gen.Sequence(700)
	for i := 0; i < 50; i++ {
		// Both parent orders: the second yields what used to be the twin.
		for _, c := range []testgen.Sequence{ops.CrossoverSeq(a, b), ops.CrossoverSeq(b, a)} {
			if len(c) < testgen.MinSequenceLen || len(c) > testgen.MaxSequenceLen {
				t.Fatalf("offspring length %d outside bounds", len(c))
			}
			if err := c.Validate(4096); err != nil {
				t.Fatalf("offspring invalid: %v", err)
			}
		}
	}
}

func TestCrossoverSeqMixesParents(t *testing.T) {
	ops := newOps(3)
	a := make(testgen.Sequence, 200)
	b := make(testgen.Sequence, 200)
	for i := range a {
		a[i] = testgen.Vector{Op: testgen.OpRead, Addr: 1}
		b[i] = testgen.Vector{Op: testgen.OpRead, Addr: 2}
	}
	sawMix := false
	for i := 0; i < 20 && !sawMix; i++ {
		c1 := ops.CrossoverSeq(a, b)
		has1, has2 := false, false
		for _, v := range c1 {
			if v.Addr == 1 {
				has1 = true
			}
			if v.Addr == 2 {
				has2 = true
			}
		}
		sawMix = has1 && has2
	}
	if !sawMix {
		t.Error("crossover never mixed material from both parents")
	}
}

func TestCrossoverSeqEmptyParents(t *testing.T) {
	ops := newOps(5)
	var empty testgen.Sequence
	c1, c2 := ops.CrossoverSeq(empty, empty), ops.CrossoverSeq(empty, nil)
	if len(c1) != 0 || len(c2) != 0 {
		t.Error("empty parents produced offspring")
	}
}

// crossoverTwoChildren is the two-child recombination CrossoverSeq
// replaced, kept as the reference for its random stream.
func crossoverTwoChildren(o *Operators, a, b testgen.Sequence) (testgen.Sequence, testgen.Sequence) {
	if len(a) == 0 || len(b) == 0 {
		return a.Clone(), b.Clone()
	}
	frac := o.rng.Float64()
	ca := int(frac * float64(len(a)))
	cb := int(frac * float64(len(b)))
	child1 := make(testgen.Sequence, 0, ca+len(b)-cb)
	child1 = append(child1, a[:ca]...)
	child1 = append(child1, b[cb:]...)
	child2 := make(testgen.Sequence, 0, cb+len(a)-ca)
	child2 = append(child2, b[:cb]...)
	child2 = append(child2, a[ca:]...)
	return o.clampLen(child1), o.clampLen(child2)
}

// TestCrossoverSeqMatchesTwoChildReference pins the one-child operator to
// the two-child one it replaced: the same kept child and, through the
// discarded twin's clamp draw, the same generator stream afterwards —
// including parents short enough that the twin needs padding.
func TestCrossoverSeqMatchesTwoChildReference(t *testing.T) {
	lens := []int{0, 1, 40, 99, 100, 101, 150, 300, 999, 1000, 1200}
	for seed := int64(1); seed <= 4; seed++ {
		src := testgen.NewRandomGenerator(100+seed, 4096, testgen.DefaultConditionLimits())
		got, ref := newOps(seed), newOps(seed)
		for _, la := range lens {
			for _, lb := range lens {
				a, b := src.Sequence(la), src.Sequence(lb)
				child := got.CrossoverSeq(a, b)
				want, _ := crossoverTwoChildren(ref, a, b)
				if !reflect.DeepEqual(child, want) {
					t.Fatalf("seed %d, parents %d/%d: child differs from the two-child reference", seed, la, lb)
				}
				if g, w := got.gen.Sequence(3), ref.gen.Sequence(3); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d, parents %d/%d: generator stream diverged after crossover", seed, la, lb)
				}
				if g, w := got.rng.Int63(), ref.rng.Int63(); g != w {
					t.Fatalf("seed %d, parents %d/%d: operator stream diverged after crossover", seed, la, lb)
				}
			}
		}
	}
}

func TestMutateSeqKeepsBoundsAndValidity(t *testing.T) {
	ops := newOps(7)
	gen := testgen.NewRandomGenerator(8, 4096, testgen.DefaultConditionLimits())
	s := gen.Sequence(150)
	for i := 0; i < 50; i++ {
		m := ops.MutateSeq(s.Clone())
		if len(m) < testgen.MinSequenceLen || len(m) > testgen.MaxSequenceLen {
			t.Fatalf("mutant length %d", len(m))
		}
		if err := m.Validate(4096); err != nil {
			t.Fatalf("mutant invalid: %v", err)
		}
	}
}

func TestMutateSeqChangesSomething(t *testing.T) {
	ops := newOps(9)
	ops.SeqMutationRate = 0.2
	gen := testgen.NewRandomGenerator(10, 4096, testgen.DefaultConditionLimits())
	s := gen.Sequence(300)
	m := ops.MutateSeq(s.Clone())
	diff := 0
	for i := range m {
		if i < len(s) && m[i] != s[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("mutation changed nothing at 20% rate")
	}
}

func TestCrossoverCondWithinLimits(t *testing.T) {
	ops := newOps(11)
	limits := testgen.DefaultConditionLimits()
	a := testgen.Conditions{VddV: limits.VddMin, TempC: limits.TempMin, ClockMHz: limits.ClockMin}
	b := testgen.Conditions{VddV: limits.VddMax, TempC: limits.TempMax, ClockMHz: limits.ClockMax}
	for i := 0; i < 100; i++ {
		c := ops.CrossoverCond(a, b)
		if !limits.Contains(c) {
			t.Fatalf("blend escaped limits: %+v", c)
		}
	}
}

func TestMutateCondWithinLimits(t *testing.T) {
	ops := newOps(13)
	limits := testgen.DefaultConditionLimits()
	c := testgen.NominalConditions()
	changed := false
	for i := 0; i < 100; i++ {
		m := ops.MutateCond(c)
		if !limits.Contains(m) {
			t.Fatalf("mutant escaped limits: %+v", m)
		}
		if m != c {
			changed = true
		}
	}
	if !changed {
		t.Error("condition mutation is a no-op")
	}
}

func TestRandomIndividual(t *testing.T) {
	ops := newOps(15)
	seq, cond := ops.RandomIndividual(nil)
	if len(seq) < testgen.MinSequenceLen || len(seq) > testgen.MaxSequenceLen {
		t.Errorf("random individual length %d", len(seq))
	}
	if !testgen.DefaultConditionLimits().Contains(cond) {
		t.Errorf("random conditions %+v outside limits", cond)
	}
	fixed := testgen.NominalConditions()
	_, cond = ops.RandomIndividual(&fixed)
	if cond != fixed {
		t.Error("fixed conditions ignored")
	}
}

func TestTournamentPicksFitter(t *testing.T) {
	ops := newOps(17)
	weak := &Individual{Fitness: 0.1, Evaluated: true}
	strong := &Individual{Fitness: 0.9, Evaluated: true}
	pop := []*Individual{weak, strong}
	strongWins := 0
	for i := 0; i < 200; i++ {
		if ops.Tournament(pop, 2) == strong {
			strongWins++
		}
	}
	// With k=2 over two individuals, the strong one wins whenever it is
	// drawn at least once: P = 3/4.
	if strongWins < 120 {
		t.Errorf("tournament selected the stronger individual only %d/200 times", strongWins)
	}
}
