package ate

import (
	"testing"

	"repro/internal/testgen"
)

// measureTwice runs a small fixed measurement task and returns the observed
// pass pattern — noise-sensitive on purpose, so RNG state differences show.
func measureTwice(t *testing.T, a *ATE, tt testgen.Test) [8]bool {
	t.Helper()
	p, err := a.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	w := p.TDQWindowNS()
	var out [8]bool
	for i := range out {
		// Strobe right at the window edge: pass/fail decided by noise.
		pass, err := a.MeasureTDQPass(tt, w)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = pass
	}
	return out
}

func TestForkIsIndependent(t *testing.T) {
	a := testATE(t)
	a.Heating = DefaultThermal()
	a.Repeats = 3
	tt := sampleTest(t)

	f, err := a.Fork(1234)
	if err != nil {
		t.Fatal(err)
	}
	if f.NoiseFraction != a.NoiseFraction || f.Repeats != a.Repeats {
		t.Error("fork lost noise/repeat configuration")
	}
	if f.Heating == a.Heating {
		t.Error("fork shares the parent's thermal state")
	}
	if f.Heating == nil || f.Heating.RisePerVector != a.Heating.RisePerVector {
		t.Error("fork lost the thermal configuration")
	}
	if f.Device() == a.Device() {
		t.Error("fork shares the parent's device")
	}
	if f.Device().Die() != a.Device().Die() {
		t.Error("fork must measure the same die")
	}
	if f.Stats() != (Stats{}) {
		t.Error("fork starts with non-zero counters")
	}

	// Measuring on the fork must not move the parent's counters.
	before := a.Stats()
	if _, err := f.MeasureTDQPass(tt, 25); err != nil {
		t.Fatal(err)
	}
	if a.Stats() != before {
		t.Error("fork measurement charged the parent")
	}
}

func TestForkNilHeating(t *testing.T) {
	a := testATE(t)
	f, err := a.Fork(5)
	if err != nil {
		t.Fatal(err)
	}
	if f.Heating != nil {
		t.Error("fork invented a thermal model")
	}
}

func TestReseedIsHermetic(t *testing.T) {
	// The deterministic-parallel contract: after Reseed(seed), a task's
	// results depend only on the seed — not on how much work the insertion
	// did before. Run the same task on a fresh fork and on a fork that
	// already burned through unrelated measurements; results must match.
	a := testATE(t)
	a.Heating = DefaultThermal()
	tt := sampleTest(t)

	fresh, err := a.Fork(1)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Reseed(4242)
	want := measureTwice(t, fresh, tt)

	used, err := a.Fork(2)
	if err != nil {
		t.Fatal(err)
	}
	// Burn RNG draws, thermal rise, pattern cache and test time.
	other, err := testgen.MarchTest(testgen.MarchCMinus(), 0, 50, 0xAAAAAAAA, testgen.NominalConditions())
	if err != nil {
		t.Fatal(err)
	}
	other.Name = "burn-in"
	for i := 0; i < 40; i++ {
		if _, err := used.MeasureTDQPass(other, 20); err != nil {
			t.Fatal(err)
		}
	}
	used.Reseed(4242)
	if got := measureTwice(t, used, tt); got != want {
		t.Errorf("reseeded task diverged: got %v, want %v", got, want)
	}

	// A stream longer than the noise source's 607-word feedback register
	// rewrites every word; reseeding must still restore the same stream.
	for i := 0; i < 2*rngLen; i++ {
		if _, err := used.MeasureTDQPass(other, 20); err != nil {
			t.Fatal(err)
		}
	}
	used.Reseed(4242)
	if got := measureTwice(t, used, tt); got != want {
		t.Errorf("task reseeded after a long stream diverged: got %v, want %v", got, want)
	}
}

func TestAddStatsMerges(t *testing.T) {
	a := testATE(t)
	tt := sampleTest(t)
	if _, err := a.MeasureTDQPass(tt, 25); err != nil {
		t.Fatal(err)
	}
	f, err := a.Fork(9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.MeasureTDQPass(tt, 25); err != nil {
			t.Fatal(err)
		}
	}
	a.AddStats(f.Stats())
	s := a.Stats()
	if s.Measurements != 4 {
		t.Errorf("merged measurements = %d, want 4", s.Measurements)
	}
	if s.Profiles != 2 {
		t.Errorf("merged profiles = %d, want 2", s.Profiles)
	}
	if s.VectorsApplied != int64(4*len(tt.Seq)) {
		t.Errorf("merged vectors = %d, want %d", s.VectorsApplied, 4*len(tt.Seq))
	}
}

func TestDeviceCloneSameSilicon(t *testing.T) {
	a := testATE(t)
	a.NoiseFraction = 0
	tt := sampleTest(t)
	p, err := a.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}

	clone, err := a.Device().Clone()
	if err != nil {
		t.Fatal(err)
	}
	b := New(clone, 1)
	b.NoiseFraction = 0
	q, err := b.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	if p.TDQWindowNS() != q.TDQWindowNS() {
		t.Errorf("clone window %.6f != original %.6f", q.TDQWindowNS(), p.TDQWindowNS())
	}
	if p.FmaxMHz() != q.FmaxMHz() {
		t.Errorf("clone fmax %.6f != original %.6f", q.FmaxMHz(), p.FmaxMHz())
	}
}
