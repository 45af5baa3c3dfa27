package testgen

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func newGen(seed int64) *RandomGenerator {
	return NewRandomGenerator(seed, 4096, DefaultConditionLimits())
}

func TestRandomGeneratorDeterminism(t *testing.T) {
	g1, g2 := newGen(7), newGen(7)
	for i := 0; i < 20; i++ {
		a, b := g1.Next(), g2.Next()
		if a.Name != b.Name || !reflect.DeepEqual(a.Seq, b.Seq) || a.Cond != b.Cond {
			t.Fatalf("same-seed generators diverged at test %d", i)
		}
	}
}

func TestRandomGeneratorSeedsDiffer(t *testing.T) {
	a, b := newGen(1).Next(), newGen(2).Next()
	if reflect.DeepEqual(a.Seq, b.Seq) {
		t.Error("different seeds produced identical sequences")
	}
}

func TestRandomSequenceLengthBounds(t *testing.T) {
	g := newGen(3)
	for i := 0; i < 200; i++ {
		tt := g.Next()
		if len(tt.Seq) < MinSequenceLen || len(tt.Seq) > MaxSequenceLen {
			t.Fatalf("sequence length %d outside [%d, %d]", len(tt.Seq), MinSequenceLen, MaxSequenceLen)
		}
	}
}

func TestRandomSequencesValidate(t *testing.T) {
	g := newGen(4)
	for i := 0; i < 100; i++ {
		tt := g.Next()
		if err := tt.Seq.Validate(g.AddrSpace()); err != nil {
			t.Fatalf("generated sequence invalid: %v", err)
		}
	}
}

func TestRandomConditionsInLimits(t *testing.T) {
	g := newGen(5)
	l := g.Limits()
	for i := 0; i < 100; i++ {
		c := g.Conditions()
		if !l.Contains(c) {
			t.Fatalf("generated conditions %+v outside limits", c)
		}
	}
}

func TestFixedConditions(t *testing.T) {
	g := newGen(6)
	fixed := NominalConditions()
	g.FixedConditions = &fixed
	for i := 0; i < 20; i++ {
		if c := g.Next().Cond; c != fixed {
			t.Fatalf("fixed conditions not honored: got %+v", c)
		}
	}
}

func TestRandomTestNamesUnique(t *testing.T) {
	g := newGen(8)
	seen := make(map[string]bool)
	for i := 0; i < 500; i++ {
		name := g.Next().Name
		if seen[name] {
			t.Fatalf("duplicate test name %q", name)
		}
		seen[name] = true
	}
}

func TestRandomStylesVary(t *testing.T) {
	// The generator must produce visibly different activity across tests —
	// the premise of the multiple-trip-point concept. Verify the mean
	// address stride varies widely over a batch.
	g := newGen(9)
	limits := g.Limits()
	minATD, maxATD := 1.0, 0.0
	for i := 0; i < 100; i++ {
		f := ExtractFeatures(g.Next(), limits)
		if f[FeatATDMean] < minATD {
			minATD = f[FeatATDMean]
		}
		if f[FeatATDMean] > maxATD {
			maxATD = f[FeatATDMean]
		}
	}
	if maxATD-minATD < 0.1 {
		t.Errorf("address-transition density spread %g too small; generator styles indistinct", maxATD-minATD)
	}
}

func TestPerturbSequence(t *testing.T) {
	g := newGen(10)
	orig := g.Sequence(500)

	same := g.PerturbSequence(orig.Clone(), 0)
	if !reflect.DeepEqual(same, orig) {
		t.Error("zero-rate perturbation altered the sequence")
	}

	all := g.PerturbSequence(orig.Clone(), 1)
	if len(all) != len(orig) {
		t.Fatalf("perturbation changed length %d → %d", len(orig), len(all))
	}
	diff := 0
	for i := range all {
		if all[i] != orig[i] {
			diff++
		}
	}
	if diff < len(orig)/2 {
		t.Errorf("rate-1 perturbation changed only %d/%d vectors", diff, len(orig))
	}
	if err := all.Validate(g.AddrSpace()); err != nil {
		t.Errorf("perturbed sequence invalid: %v", err)
	}
}

func TestBatch(t *testing.T) {
	g := newGen(11)
	b := g.Batch(7)
	if len(b) != 7 {
		t.Fatalf("Batch(7) returned %d tests", len(b))
	}
}

func TestNewRandomGeneratorPanicsOnZeroAddrSpace(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero address space did not panic")
		}
	}()
	NewRandomGenerator(1, 0, DefaultConditionLimits())
}

// TestSerialNameMatchesFmt: the strconv-built test names equal the
// fmt.Sprintf zero-padded forms they replaced — "RND-%04d" for generated
// tests, "GA-%06d" for GA individuals — on sampled serials of every
// magnitude and at each width edge.
func TestSerialNameMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	serials := []int{0, 1, 9, 10, 999, 1000, 9999, 10000, 99999, 999999, 1000000, 12345678, math.MaxInt32}
	for i := 0; i < 2000; i++ {
		serials = append(serials, int(rng.Int63n(int64(1)<<uint(1+rng.Intn(40)))))
	}
	for _, n := range serials {
		if got, want := SerialName("RND-", n, 4), fmt.Sprintf("RND-%04d", n); got != want {
			t.Fatalf("SerialName(RND-, %d, 4) = %q, fmt gives %q", n, got, want)
		}
		if got, want := SerialName("GA-", n, 6), fmt.Sprintf("GA-%06d", n); got != want {
			t.Fatalf("SerialName(GA-, %d, 6) = %q, fmt gives %q", n, got, want)
		}
	}
	g := newGen(3)
	for i := 1; i <= 3; i++ {
		if got, want := g.Next().Name, fmt.Sprintf("RND-%04d", i); got != want {
			t.Errorf("test %d named %q, want %q", i, got, want)
		}
	}
}
