package shmoo

import (
	"fmt"

	"repro/internal/ate"
	"repro/internal/parallel"
	"repro/internal/testgen"
)

// Fleet sweeps. Every task (a whole test for the overlay fan-out, one grid
// row for the wavefront) runs on a forked tester insertion reseeded with
// baseSeed + taskIndex, collects pass/fail cells into a private grid, and
// the grids merge into the overlay in task order from the fleet's in-order
// delivery while later tasks are still measuring — so the plot and the
// merged cost counters are bit-identical for any fleet size. Unlike the
// serial AddTest, where one tester carries noise-RNG and thermal state
// across the whole overlay, each task is hermetic.

// forkPoint selects which measurement a fleet sweep performs on the
// forked insertion.
type forkPoint func(wk *ate.ATE) PointFunc

// AddTestsOn sweeps every test over the T_DQ strobe grid (the fig. 8
// axes) on the fleet, one task per test, and accumulates them into the
// overlay in test order as each delivery arrives.
func (p *Plot) AddTestsOn(f *parallel.Fleet, a *ate.ATE, tests []testgen.Test, baseSeed int64) error {
	return p.addTestsOn(f, a, tests, baseSeed, func(wk *ate.ATE) PointFunc { return wk.MeasureShmooPoint })
}

// AddFmaxTestsOn sweeps every test over a clock-vs-supply grid on the
// fleet — the multi-test form of AddFmaxTest.
func (p *Plot) AddFmaxTestsOn(f *parallel.Fleet, a *ate.ATE, tests []testgen.Test, baseSeed int64) error {
	return p.addTestsOn(f, a, tests, baseSeed, func(wk *ate.ATE) PointFunc { return wk.MeasureFmaxShmooPoint })
}

func (p *Plot) addTestsOn(f *parallel.Fleet, a *ate.ATE, tests []testgen.Test, baseSeed int64, point forkPoint) error {
	grids := make([][]bool, len(tests))
	costs := make([]ate.Stats, len(tests))
	return parallel.Stream(f, len(tests), 0, nil, func(int) (*ate.ATE, error) {
		return a.Fork(baseSeed)
	}, func(wk *ate.ATE, i int) error {
		wk.Reseed(baseSeed + int64(i))
		cells, err := p.sweepGrid(point(wk), tests[i], 0, p.Y.Steps)
		if err != nil {
			return err
		}
		grids[i] = cells
		costs[i] = wk.Stats()
		return nil
	}, func(i int) error {
		a.AddStats(costs[i])
		p.merge(grids[i])
		grids[i] = nil
		if p.OnTest != nil {
			p.OnTest(p.Tests, costs[i])
		}
		p.Tests++
		return nil
	})
}

// AddTestsWavefront sweeps every test as a wavefront of per-(test,row)
// cells instead of whole-test tasks: task k covers row k%Y.Steps of test
// k/Y.Steps and reseeds with baseSeed + k, so a single test's rows seed
// with baseSeed + rowIndex — the low-latency path when one plot is on the
// critical path, with no row barrier between tests. Every row re-loads the
// pattern on its insertion, so Profiles cost grows with Y.Steps compared to
// the whole-test sweeps.
func (p *Plot) AddTestsWavefront(f *parallel.Fleet, a *ate.ATE, tests []testgen.Test, baseSeed int64) error {
	ys := p.Y.Steps
	n := len(tests) * ys
	rows := make([][]bool, n)
	costs := make([]ate.Stats, n)
	var total ate.Stats
	return parallel.Stream(f, n, 0, nil, func(int) (*ate.ATE, error) {
		return a.Fork(baseSeed)
	}, func(wk *ate.ATE, k int) error {
		ti, yi := k/ys, k%ys
		wk.Reseed(baseSeed + int64(k))
		cells, err := p.sweepGrid(wk.MeasureShmooPoint, tests[ti], yi, yi+1)
		if err != nil {
			return err
		}
		rows[k] = cells
		costs[k] = wk.Stats()
		return nil
	}, func(k int) error {
		yi := k % ys
		a.AddStats(costs[k])
		total.Add(costs[k])
		for xi := 0; xi < p.X.Steps; xi++ {
			if rows[k][yi*p.X.Steps+xi] {
				p.passCount[yi*p.X.Steps+xi]++
			}
		}
		rows[k] = nil
		if yi == ys-1 {
			if p.OnTest != nil {
				p.OnTest(p.Tests, total)
			}
			p.Tests++
			total = ate.Stats{}
		}
		return nil
	})
}

// sweepGrid measures rows [yLo, yHi) of the grid for one test into a
// full-size cell slice.
func (p *Plot) sweepGrid(point PointFunc, t testgen.Test, yLo, yHi int) ([]bool, error) {
	cells := make([]bool, p.X.Steps*p.Y.Steps)
	for yi := yLo; yi < yHi; yi++ {
		vdd := p.Y.Value(yi)
		for xi := 0; xi < p.X.Steps; xi++ {
			x := p.X.Value(xi)
			ok, err := point(t, vdd, x)
			if err != nil {
				return nil, fmt.Errorf("shmoo: %s at (%g, %g): %w", t.Name, x, vdd, err)
			}
			cells[yi*p.X.Steps+xi] = ok
		}
	}
	return cells, nil
}

// merge accumulates a full grid of one test's outcomes into the overlay.
func (p *Plot) merge(cells []bool) {
	for c, ok := range cells {
		if ok {
			p.passCount[c]++
		}
	}
}
