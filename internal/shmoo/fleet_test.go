package shmoo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/ate"
	"repro/internal/parallel"
	"repro/internal/testgen"
)

// The fleet sweeps replaced per-call batch-pool sweeps that produced the
// same plots. These digests of the plot's pass counts, test count and
// merged tester cost were recorded from the batch pool (where they held at
// every worker count), with measurement noise ON so the RNG discipline is
// load-bearing; the fleet must reproduce them at every fleet size.
const (
	// 6 tests, seed 900, T_DQ grid.
	batchTestsDigest = "31ba3de9fe7b206ca4f38d3b221711a0f756f79e47ed37ed880c953644180f2c"
	// two overlays (tests 0-1 at seed 77, tests 2-3 at seed 78).
	batchTwoOverlaysDigest = "938c319c359b9e9847d40b2ca1c5232e6dadf2f82aba180da9f1e702d774ccf4"
	// 3 tests, seed 55, clock-vs-supply grid.
	batchFmaxDigest = "0a5b0ef1f958354e9a4a6df48601485cd26d91c71988604f25cc73c40e886c79"
	// one test with rows fanned out, row seeds 31 + rowIndex.
	batchRowsDigest = "1fdcdb219e1e73ca31db7e69ad0c2a21e61c12508fcc38c6d127440ea7e76eb9"
)

var digestFleetSizes = []int{1, 2, 8}

// sweepOn runs one sweep on a fresh fork of tester and a fresh fleet and
// returns the plot digest.
func sweepOn(t *testing.T, tester *ate.ATE, x, y Axis, workers int, sweep func(*Plot, *parallel.Fleet, *ate.ATE) error) string {
	t.Helper()
	p, err := NewPlot(x, y)
	if err != nil {
		t.Fatal(err)
	}
	fork, err := tester.Fork(1)
	if err != nil {
		t.Fatal(err)
	}
	f := parallel.NewFleet(workers)
	defer f.Close()
	if err := sweep(p, f, fork); err != nil {
		t.Fatal(err)
	}
	return plotDigest(p, fork.Stats())
}

func TestAddTestsOnMatchesBatchPool(t *testing.T) {
	tester, gen := rig(t)
	tester.NoiseFraction = 0.25
	tests := gen.Batch(6)
	x, y := smallAxes()
	for _, workers := range digestFleetSizes {
		got := sweepOn(t, tester, x, y, workers, func(p *Plot, f *parallel.Fleet, a *ate.ATE) error {
			return p.AddTestsOn(f, a, tests, 900)
		})
		if got != batchTestsDigest {
			t.Errorf("fleet=%d digest %s, batch pool recorded %s", workers, got, batchTestsDigest)
		}
	}
}

func TestAddTestsOnReusesFleetAcrossOverlays(t *testing.T) {
	tester, gen := rig(t)
	tester.NoiseFraction = 0.25
	tests := gen.Batch(4)
	x, y := smallAxes()
	for _, workers := range digestFleetSizes {
		// Two overlays on the same fleet: the workers (and their reused
		// insertions) survive the stage boundary.
		got := sweepOn(t, tester, x, y, workers, func(p *Plot, f *parallel.Fleet, a *ate.ATE) error {
			if err := p.AddTestsOn(f, a, tests[:2], 77); err != nil {
				return err
			}
			return p.AddTestsOn(f, a, tests[2:], 78)
		})
		if got != batchTwoOverlaysDigest {
			t.Errorf("fleet=%d digest %s, batch pool recorded %s", workers, got, batchTwoOverlaysDigest)
		}
	}
}

func TestAddFmaxTestsOnMatchesBatchPool(t *testing.T) {
	tester, gen := rig(t)
	tester.NoiseFraction = 0.25
	tests := gen.Batch(3)
	x := Axis{Label: "F (MHz)", Min: 40, Max: 120, Steps: 9}
	_, y := smallAxes()
	for _, workers := range digestFleetSizes {
		got := sweepOn(t, tester, x, y, workers, func(p *Plot, f *parallel.Fleet, a *ate.ATE) error {
			return p.AddFmaxTestsOn(f, a, tests, 55)
		})
		if got != batchFmaxDigest {
			t.Errorf("fleet=%d digest %s, batch pool recorded %s", workers, got, batchFmaxDigest)
		}
	}
}

func TestWavefrontSingleTestMatchesRowParallel(t *testing.T) {
	tester, gen := rig(t)
	tester.NoiseFraction = 0.25
	tt := gen.Next()
	x, y := smallAxes()
	for _, workers := range digestFleetSizes {
		got := sweepOn(t, tester, x, y, workers, func(p *Plot, f *parallel.Fleet, a *ate.ATE) error {
			if err := p.AddTestsWavefront(f, a, []testgen.Test{tt}, 31); err != nil {
				return err
			}
			if p.Tests != 1 {
				t.Errorf("fleet=%d Tests = %d after one wavefront test", workers, p.Tests)
			}
			return nil
		})
		if got != batchRowsDigest {
			t.Errorf("fleet=%d digest %s, row-parallel batch pool recorded %s", workers, got, batchRowsDigest)
		}
	}
}

func TestWavefrontDeterministicAcrossFleetSizes(t *testing.T) {
	tester, gen := rig(t)
	tester.NoiseFraction = 0.25
	tests := gen.Batch(5)
	x, y := smallAxes()

	render := func(workers int) (string, int64, []int) {
		p, err := NewPlot(x, y)
		if err != nil {
			t.Fatal(err)
		}
		var indices []int
		p.OnTest = func(index int, cost ate.Stats) { indices = append(indices, index) }
		fork, err := tester.Fork(1)
		if err != nil {
			t.Fatal(err)
		}
		f := parallel.NewFleet(workers)
		defer f.Close()
		if err := p.AddTestsWavefront(f, fork, tests, 640); err != nil {
			t.Fatal(err)
		}
		if p.Tests != len(tests) {
			t.Fatalf("workers=%d Tests = %d, want %d", workers, p.Tests, len(tests))
		}
		return p.Render(), fork.Stats().Measurements, indices
	}

	grid1, cost1, idx1 := render(1)
	if len(idx1) != len(tests) {
		t.Fatalf("observer fired %d times for %d tests", len(idx1), len(tests))
	}
	for i, idx := range idx1 {
		if idx != i {
			t.Errorf("observation %d has overlay index %d", i, idx)
		}
	}
	for _, workers := range []int{2, 8} {
		grid, cost, idx := render(workers)
		if grid != grid1 {
			t.Errorf("workers=%d wavefront grid differs from workers=1:\n%s\nvs\n%s", workers, grid, grid1)
		}
		if cost != cost1 {
			t.Errorf("workers=%d merged %d measurements, workers=1 merged %d", workers, cost, cost1)
		}
		if len(idx) != len(idx1) {
			t.Errorf("workers=%d observer fired %d times, want %d", workers, len(idx), len(idx1))
		}
	}
}

// plotDigest hashes an overlay's per-cell pass counts, its test count and
// the tester cost merged into the insertion it swept on.
func plotDigest(p *Plot, cost ate.Stats) string {
	h := sha256.New()
	fmt.Fprintf(h, "%v\x00%d\x00%+v", p.passCount, p.Tests, cost)
	return hex.EncodeToString(h.Sum(nil))
}
