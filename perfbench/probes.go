package main

import (
	"time"

	"repro/internal/ate"
	"repro/internal/dut"
	"repro/internal/neural"
	"repro/internal/testgen"
)

// Layer probes: single public calls into one layer, timed from outside on
// the workload's own inputs after the traced pass (outside its CPU
// profile). Each probe repeats its loop until probeMin has elapsed, five
// times, and reports the median cost per unit.
const (
	probeMin  = 20 * time.Millisecond
	probeReps = 5
)

// probeInputs are what a workload hands the probes; a nil field leaves
// its probes at 0 (the workload does not call that layer).
type probeInputs struct {
	seeds    []int64        // ATE seeds: die seeds of a lot, flow or job seeds
	tests    []testgen.Test // the workload's own test sequences
	ensemble *neural.Ensemble
	lots     []*dut.WaferLot
	newLot   func(k int) (*dut.WaferLot, error)
}

// perUnit runs body (which reports the units it did) until probeMin has
// elapsed, probeReps times, and returns the median nanoseconds per unit.
func perUnit(body func() (int, error)) (float64, error) {
	return perTimedUnit(func() (int, time.Duration, error) {
		start := time.Now()
		n, err := body()
		return n, time.Since(start), err
	})
}

// perTimedUnit is perUnit for a body that times only part of its work
// and reports the units and the time they took.
func perTimedUnit(body func() (int, time.Duration, error)) (float64, error) {
	var reps []float64
	for r := 0; r < probeReps; r++ {
		units := 0
		var spent time.Duration
		for spent < probeMin {
			n, d, err := body()
			if err != nil {
				return 0, err
			}
			units += n
			spent += d
		}
		reps = append(reps, float64(spent.Nanoseconds())/float64(units))
	}
	return median(reps), nil
}

// sink keeps probed results live so the calls are not optimized away.
var sink uint64

func probeLayers(m map[string]float64, in probeInputs) error {
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		return err
	}
	tester := ate.New(dev, 0)
	if len(in.seeds) > 0 {
		if m["ate.reseed_ns"], err = perUnit(func() (int, error) {
			for _, s := range in.seeds {
				tester.Reseed(s)
			}
			return len(in.seeds), nil
		}); err != nil {
			return err
		}
	}
	if len(in.tests) > 0 {
		if err := probeTests(m, tester, in.tests); err != nil {
			return err
		}
	}
	if in.ensemble != nil && len(in.tests) > 0 {
		limits := testgen.DefaultConditionLimits()
		feats := make([][]float64, len(in.tests))
		for i, t := range in.tests {
			feats[i] = testgen.ExtractFeatures(t, limits)
		}
		if m["neural.vote_ns_per_sample"], err = perUnit(func() (int, error) {
			avgs, _, err := in.ensemble.VoteBatch(feats)
			sink += uint64(len(avgs))
			return len(feats), err
		}); err != nil {
			return err
		}
	}
	if len(in.lots) > 0 {
		if m["dut.wafer_die_ns"], err = perUnit(func() (int, error) {
			n := 0
			for _, lot := range in.lots {
				for i := 0; i < lot.Len(); i++ {
					sink += uint64(lot.Die(i).ID)
				}
				n += lot.Len()
			}
			return n, nil
		}); err != nil {
			return err
		}
	}
	if in.newLot != nil {
		var secs []float64
		for k := 0; k < probeReps*len(in.lots); k++ {
			start := time.Now()
			lot, err := in.newLot(k)
			if err != nil {
				return err
			}
			secs = append(secs, time.Since(start).Seconds())
			sink += uint64(lot.Len())
		}
		m["dut.new_wafer_lot_s"] = median(secs)
	}
	return nil
}

// probeTests times the per-test layers: the ATE's cached profile copy, the
// DUT's execution and address decode, and testgen's fingerprint and
// feature extraction.
func probeTests(m map[string]float64, tester *ate.ATE, tests []testgen.Test) error {
	var err error
	// Profile returns the pattern memory's cached profile by value once
	// the test is loaded; load each test untimed, then time that path.
	loaded := tests[:min(len(tests), 32)]
	if m["ate.profile_ns"], err = perTimedUnit(func() (int, time.Duration, error) {
		var spent time.Duration
		for _, t := range loaded {
			if _, err := tester.Profile(t); err != nil {
				return 0, 0, err
			}
			start := time.Now()
			for j := 0; j < 64; j++ {
				p, err := tester.Profile(t)
				if err != nil {
					return 0, 0, err
				}
				sink += uint64(p.Act.Cycles)
			}
			spent += time.Since(start)
		}
		return 64 * len(loaded), spent, nil
	}); err != nil {
		return err
	}

	geom := dut.DefaultGeometry()
	mem, err := dut.NewMemory(geom, dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		return err
	}
	if m["dut.execute_ns_per_cycle"], err = perUnit(func() (int, error) {
		cycles := 0
		for _, t := range tests {
			act, _ := mem.ExecuteObserved(t.Seq, t.Cond.VddV, nil)
			sink += uint64(act.Cycles)
			cycles += len(t.Seq)
		}
		return cycles, nil
	}); err != nil {
		return err
	}
	if m["dut.decode_ns"], err = perUnit(func() (int, error) {
		n := 0
		for _, t := range tests {
			for _, v := range t.Seq {
				b, r, c := geom.Decode(v.Addr)
				sink += uint64(b + r + c)
			}
			n += len(t.Seq)
		}
		return n, nil
	}); err != nil {
		return err
	}
	if m["testgen.fingerprint_ns"], err = perUnit(func() (int, error) {
		for _, t := range tests {
			sink += t.Fingerprint()
		}
		return len(tests), nil
	}); err != nil {
		return err
	}
	limits := testgen.DefaultConditionLimits()
	m["testgen.features_ns"], err = perUnit(func() (int, error) {
		for _, t := range tests {
			sink += uint64(len(testgen.ExtractFeatures(t, limits)))
		}
		return len(tests), nil
	})
	return err
}
