package dut

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSmoothstep(t *testing.T) {
	if got := smoothstep(0.0, 0.2, 0.8); got != 0 {
		t.Errorf("below lo: %g", got)
	}
	if got := smoothstep(1.0, 0.2, 0.8); got != 1 {
		t.Errorf("above hi: %g", got)
	}
	if got := smoothstep(0.5, 0.2, 0.8); got <= 0 || got >= 1 {
		t.Errorf("midpoint out of (0,1): %g", got)
	}
	// Degenerate edges behave as a step.
	if smoothstep(1, 0.5, 0.5) != 1 || smoothstep(0, 0.5, 0.5) != 0 {
		t.Error("degenerate smoothstep not a step function")
	}
}

func TestSmoothstepMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		x, y := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if x > y {
			x, y = y, x
		}
		return smoothstep(x, 0.2, 0.8) <= smoothstep(y, 0.2, 0.8)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRidgeRequiresAllFourTerms(t *testing.T) {
	p := DefaultPhysics()
	full := Activity{ATDPeak: 1, TogglePeak: 1, SSNSustained: 1, CouplingScore: 1}
	if got := p.Ridge(&full); got != 1 {
		t.Errorf("fully coordinated activity ridge = %g, want 1", got)
	}
	// Zeroing any one term must kill the ridge.
	for name, act := range map[string]Activity{
		"no-atd":      {TogglePeak: 1, SSNSustained: 1, CouplingScore: 1},
		"no-toggle":   {ATDPeak: 1, SSNSustained: 1, CouplingScore: 1},
		"no-ssn":      {ATDPeak: 1, TogglePeak: 1, CouplingScore: 1},
		"no-coupling": {ATDPeak: 1, TogglePeak: 1, SSNSustained: 1},
	} {
		if got := p.Ridge(&act); got != 0 {
			t.Errorf("%s ridge = %g, want 0", name, got)
		}
	}
}

func TestEffectiveVddDropsWithActivity(t *testing.T) {
	p := DefaultPhysics()
	die := NewDie(0, CornerTypical)
	idle := p.EffectiveVdd(1.8, 25, &Activity{}, die)
	busy := p.EffectiveVdd(1.8, 25, &Activity{ATDMean: 0.8, ToggleMean: 0.8, SSNPeak: 0.8}, die)
	if idle != 1.8 {
		t.Errorf("idle effective Vdd = %g, want 1.8", idle)
	}
	if busy >= idle {
		t.Errorf("busy effective Vdd %g not below idle %g", busy, idle)
	}
}

func TestEffectiveVddLeakageGrowsWithTemp(t *testing.T) {
	p := DefaultPhysics()
	die := NewDie(0, CornerTypical)
	cold := p.EffectiveVdd(1.8, 25, &Activity{}, die)
	hot := p.EffectiveVdd(1.8, 125, &Activity{}, die)
	if hot >= cold {
		t.Errorf("hot effective Vdd %g not below cold %g", hot, cold)
	}
}

func TestTDQWindowMonotoneInVdd(t *testing.T) {
	p := DefaultPhysics()
	die := NewDie(0, CornerTypical)
	act := Activity{ATDPeak: 0.3, TogglePeak: 0.5, SSNPeak: 0.2}
	prev := math.Inf(-1)
	for vdd := 1.4; vdd <= 2.2; vdd += 0.05 {
		w := p.TDQWindowNS(vdd, 25, 100, &act, die)
		if w < prev {
			t.Fatalf("T_DQ window not monotone in Vdd at %g V: %g < %g", vdd, w, prev)
		}
		prev = w
	}
}

func TestTDQWindowActivityPenalty(t *testing.T) {
	p := DefaultPhysics()
	die := NewDie(0, CornerTypical)
	idle := p.TDQWindowNS(1.8, 25, 100, &Activity{}, die)
	busy := p.TDQWindowNS(1.8, 25, 100, &Activity{ATDPeak: 0.8, TogglePeak: 0.9, SSNPeak: 0.6}, die)
	if busy >= idle {
		t.Errorf("busy window %g not below idle %g", busy, idle)
	}
	if idle < 30 || idle > 40 {
		t.Errorf("idle window %g ns implausible for the 35 ns nominal", idle)
	}
}

func TestTDQWindowTempAndClock(t *testing.T) {
	p := DefaultPhysics()
	die := NewDie(0, CornerTypical)
	base := p.TDQWindowNS(1.8, 25, 100, &Activity{}, die)
	hot := p.TDQWindowNS(1.8, 125, 100, &Activity{}, die)
	fast := p.TDQWindowNS(1.8, 25, 133, &Activity{}, die)
	if hot >= base {
		t.Errorf("hot window %g not below 25°C window %g", hot, base)
	}
	if fast >= base {
		t.Errorf("133 MHz window %g not below 100 MHz window %g", fast, base)
	}
}

func TestTDQWindowCornerOrdering(t *testing.T) {
	p := DefaultPhysics()
	act := Activity{TogglePeak: 0.5}
	wFF := p.TDQWindowNS(1.8, 25, 100, &act, NewDie(0, CornerFast))
	wTT := p.TDQWindowNS(1.8, 25, 100, &act, NewDie(1, CornerTypical))
	wSS := p.TDQWindowNS(1.8, 25, 100, &act, NewDie(2, CornerSlow))
	if !(wFF > wTT && wTT > wSS) {
		t.Errorf("corner windows not ordered FF > TT > SS: %g, %g, %g", wFF, wTT, wSS)
	}
}

func TestLowVddKneeDegrades(t *testing.T) {
	p := DefaultPhysics()
	die := NewDie(0, CornerTypical)
	// The slope below the knee must exceed the linear slope above it.
	above := p.TDQWindowNS(1.70, 25, 100, &Activity{}, die) - p.TDQWindowNS(1.65, 25, 100, &Activity{}, die)
	below := p.TDQWindowNS(1.50, 25, 100, &Activity{}, die) - p.TDQWindowNS(1.45, 25, 100, &Activity{}, die)
	if below <= above {
		t.Errorf("no sense-amp knee: slope below %g ≤ slope above %g", below, above)
	}
}

func TestFmaxMonotoneInVdd(t *testing.T) {
	p := DefaultPhysics()
	die := NewDie(0, CornerTypical)
	lo := p.FmaxMHz(1.5, 25, &Activity{}, die)
	hi := p.FmaxMHz(2.0, 25, &Activity{}, die)
	if hi <= lo {
		t.Errorf("Fmax not increasing with Vdd: %g at 1.5V, %g at 2.0V", lo, hi)
	}
}

func TestFmaxActivityPenalty(t *testing.T) {
	p := DefaultPhysics()
	die := NewDie(0, CornerTypical)
	idle := p.FmaxMHz(1.8, 25, &Activity{}, die)
	busy := p.FmaxMHz(1.8, 25, &Activity{ATDPeak: 1, TogglePeak: 1, SSNPeak: 1}, die)
	if busy >= idle {
		t.Errorf("busy Fmax %g not below idle %g", busy, idle)
	}
	if idle < 100 || idle > 150 {
		t.Errorf("idle Fmax %g MHz implausible", idle)
	}
}

func TestVddMinRisesWithActivity(t *testing.T) {
	p := DefaultPhysics()
	die := NewDie(0, CornerTypical)
	idle := p.VddMinV(25, &Activity{}, die)
	busy := p.VddMinV(25, &Activity{ATDPeak: 1, TogglePeak: 1, SSNPeak: 1, SSNSustained: 1, CouplingScore: 1}, die)
	if busy <= idle {
		t.Errorf("busy Vddmin %g not above idle %g", busy, idle)
	}
	if idle < 1.2 || idle > 1.6 {
		t.Errorf("idle Vddmin %g V implausible", idle)
	}
}

func TestRidgeInUnitRangeProperty(t *testing.T) {
	p := DefaultPhysics()
	f := func(a, b, c, d float64) bool {
		act := Activity{
			ATDPeak:       math.Abs(math.Mod(a, 1)),
			TogglePeak:    math.Abs(math.Mod(b, 1)),
			SSNSustained:  math.Abs(math.Mod(c, 1)),
			CouplingScore: math.Abs(math.Mod(d, 1)),
		}
		r := p.Ridge(&act)
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
