package testgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// Golden pins for the two per-test encodings the flow computes on the
// fleet. Fingerprints are the memo-cache and disk-cache keys (memopersist,
// LOTV1), and the feature vector is the trained networks' input encoding,
// so neither may drift when their implementation is optimized. Every value
// below was recorded from the byte-at-a-time FNV and modulo-indexed
// ring-window implementations.

// goldenTests returns fixed tests covering the edge cases: empty, shorter
// than the feature window, exactly one window, and generator tests.
func goldenTests() []Test {
	gen := NewRandomGenerator(7, 1024, DefaultConditionLimits())
	tests := []Test{
		{Name: "empty", Cond: NominalConditions()},
		fpTest(),
		{Name: "window", Seq: Sequence{
			{Op: OpWrite, Addr: 1, Data: 0x55555555}, {Op: OpWrite, Addr: 2, Data: 0xAAAAAAAA},
			{Op: OpRead, Addr: 1}, {Op: OpRead, Addr: 1022},
			{Op: OpNop}, {Op: OpWrite, Addr: 3, Data: 0x0F0F0F0F},
			{Op: OpRead, Addr: 2}, {Op: OpWrite, Addr: 4, Data: 0xF0F0F0F0},
		}, Cond: Conditions{VddV: 1.65, TempC: 85, ClockMHz: 133}},
	}
	for i := 0; i < 3; i++ {
		tests = append(tests, gen.Next())
	}
	return tests
}

func TestFingerprintGolden(t *testing.T) {
	want := []struct{ test, seq, cond uint64 }{
		{0x89770be602befbc2, 0xa8c7f832281a39c5, 0x6f7389dc262ed27d},
		{0x539a06c03eeebe7e, 0x2d5614aabb33a471, 0x6f7389dc262ed27d},
		{0x0e1d406d7d5d66dc, 0xa77b12f2232ea0c5, 0xcadcb61cb5664863},
		{0xe583af4f345196b9, 0x7a469cfe556720df, 0xc89e0c642a6d4c54},
		{0x22861d7e3729a7b8, 0xbdc4bc1093747936, 0xcb42db54b9c0517a},
		{0xb8dec89d15c14cfc, 0x11e5f0fbe707f007, 0xc9764b9487bd9719},
	}
	for i, tt := range goldenTests() {
		got := [3]uint64{tt.Fingerprint(), tt.Seq.Fingerprint(), tt.Cond.Fingerprint()}
		if got != [3]uint64{want[i].test, want[i].seq, want[i].cond} {
			t.Errorf("%s: fingerprints {%#x, %#x, %#x}, recorded {%#x, %#x, %#x}",
				tt.Name, got[0], got[1], got[2], want[i].test, want[i].seq, want[i].cond)
		}
	}

	// Breadth: 500 generator tests folded into one digest.
	gen := NewRandomGenerator(11, 4096, DefaultConditionLimits())
	h := sha256.New()
	for i := 0; i < 500; i++ {
		h.Write(binary.LittleEndian.AppendUint64(nil, gen.Next().Fingerprint()))
	}
	const wantDigest = "03c92f9c09d2ccd8f3427bf3154fef880179126757e521c4846a3896c6c7203a"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
		t.Errorf("500-test fingerprint digest %s, recorded %s", got, wantDigest)
	}
}

func TestExtractFeaturesGolden(t *testing.T) {
	limits := DefaultConditionLimits()
	// The 8-vector window test, feature by feature.
	want := [NumFeatures]uint64{
		0x3fd6666666666667, 0x3fdd70a3d70a3d70, 0x3fd9200000000000, 0x3fe0000000000000, // atd, toggle
		0x3fd8000000000000, 0x3fe0000000000000, 0x3fc0000000000000, 0x3fd0000000000000, // ratios, burst, ping-pong
		0x3fae1380a56b438e, 0x3fe0000000000000, 0x3fe0000000000000, 0x3fe0000000000000, // locality, backgrounds
		0x3ff0000000000000, 0x3fd6f33333333334, 0x3ff0000000000000, // invert, ssn, coupling
		0x3fd3fffffffffffe, 0x3fe83e0f83e0f83e, 0x3ff0000000000000, 0, // vdd, temp, clock, seq_len
	}
	f := ExtractFeatures(goldenTests()[2], limits)
	for i, v := range f {
		if math.Float64bits(v) != want[i] {
			t.Errorf("feature %s = %#x (%v), recorded %#x", FeatureNames()[i], math.Float64bits(v), v, want[i])
		}
	}

	// Breadth: generator tests of every length from 1 to 40 vectors (the
	// window warm-up and steady state) plus full-length tests, digested bit
	// for bit.
	gen := NewRandomGenerator(13, 4096, limits)
	h := sha256.New()
	add := func(tt Test) {
		for _, v := range ExtractFeatures(tt, limits) {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	for n := 1; n <= 40; n++ {
		add(Test{Seq: gen.Sequence(n), Cond: gen.Conditions()})
	}
	for i := 0; i < 200; i++ {
		add(gen.Next())
	}
	for _, tt := range goldenTests() {
		add(tt)
	}
	const wantDigest = "2ad06e357787b179776f1115905171fd422668d92f5f521823f13423f7f28e86"
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
		t.Errorf("feature digest %s, recorded %s", got, wantDigest)
	}
}

// TestFeatureRingMatchesSliceWindow pins the ring buffer to the plain
// slice window it replaced: append, drop the oldest past featureWindow
// values, and average by summing oldest to newest. Means must agree bit
// for bit at every push, warm-up included.
func TestFeatureRingMatchesSliceWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var ring featureRing
		var window []float64
		for step := 0; step < 1+rng.Intn(100); step++ {
			v := rng.Float64()
			switch rng.Intn(4) {
			case 0:
				v = 0
			case 1:
				v = float64(rng.Intn(33)) / 32
			}
			ring.push(v)
			window = append(window, v)
			if len(window) > featureWindow {
				window = window[1:]
			}
			s := 0.0
			for _, w := range window {
				s += w
			}
			want := s / float64(len(window))
			if got := ring.mean(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d step %d: ring mean %v, slice window %v", trial, step, got, want)
			}
		}
	}
}
