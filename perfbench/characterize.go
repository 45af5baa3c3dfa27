package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ate"
	"repro/internal/core"
	"repro/internal/dut"
	"repro/internal/neural"
	"repro/internal/testgen"
)

// The characterize workload: the paper's T_DQ flow, twice per flow seed —
// the fig. 4 + fig. 5 flow on its own, then Table 1 (whose NN+GA row runs
// the same flow again after the March and random baselines) — at the CLI
// defaults, nominal conditions and 2 workers.
const (
	charSeeds   = 24   // distinct flow seeds per workload seed (golden slots)
	learnTests  = 300  // characterize -learn-tests default
	randomTests = 1000 // characterize -random-tests default
	marchWords  = 100  // the CLI's Table 1 March window
)

var characterizeWorkload = &workload{
	name: "characterize",
	why: "the paper's own flow: time goes to dut execution and decode, testgen features and fingerprints, " +
		"neural, genetic, search and the memo-cache, almost none to wafers or RNG reseeding",
	golden:         "characterize",
	minItems:       20, // op_p50_s needs 20 fig. 5 flows
	minTracedItems: 1,
	setup:          setupCharacterize,
}

// charSeed is the flow seed of item slot k.
func charSeed(wseed int64, k int) int64 { return wseed*1000 + int64(k) + 1 }

type charInstance struct {
	e *env

	// The last traced flow's inputs, for the layer probes.
	probeTests []testgen.Test
	probeEns   *neural.Ensemble
}

// warmUpSeed is the flow seed of the set-up flow. It is the same for every
// workload seed, so setup_s varies only with the machine, and no slot uses
// it.
const warmUpSeed = 999

// setupCharacterize runs one warm-up fig. 4 + 5 flow: it constructs a
// device, tester, characterizer and fleet, and lets the heap grow to its
// working size before timing starts.
func setupCharacterize(e *env) (instance, error) {
	c := &charInstance{e: e}
	if _, err := c.fig5(warmUpSeed, nil, ""); err != nil {
		return nil, err
	}
	return c, nil
}

func flowConfig(seed int64) core.Config {
	cfg := core.DefaultConfig(seed)
	cfg.Parameter = ate.TDQ
	cfg.LearnTests = learnTests
	cfg.Parallelism = workers
	nominal := testgen.NominalConditions()
	cfg.FixedConditions = &nominal
	return cfg
}

func newTester(seed int64) (*ate.ATE, error) {
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(0, dut.CornerTypical))
	if err != nil {
		return nil, err
	}
	return ate.New(dev, seed), nil
}

// fig5Result is one fig. 4 + 5 flow's outcome.
type fig5Result struct {
	wall   time.Duration
	meas   int64
	digest string
}

// fig5 runs Learn → ProposeSeeds → OptimizeFrom on a fresh device, as
// `characterize` does, timing it from device construction to Close.
func (c *charInstance) fig5(seed int64, rec *recorder, trace string) (fig5Result, error) {
	start := time.Now()
	tester, err := newTester(seed)
	if err != nil {
		return fig5Result{}, err
	}
	cfg := flowConfig(seed)
	obs := rec.observer(trace, 0)
	cfg.Telemetry = obs.telemetry()
	root := rec.begin("characterize.fig5", trace, 0)
	defer root.end()

	sp := obs.call("core.NewCharacterizer", root.id())
	char, err := core.NewCharacterizer(cfg, tester)
	sp.end()
	if err != nil {
		return fig5Result{}, err
	}
	defer char.Close()
	sp = obs.call("core.Learn", root.id())
	learned, err := char.Learn()
	sp.end()
	if err != nil {
		return fig5Result{}, err
	}
	sp = obs.call("core.ProposeSeeds", root.id())
	cands, err := char.ProposeSeeds()
	sp.end()
	if err != nil {
		return fig5Result{}, err
	}
	sp = obs.call("core.OptimizeFrom", root.id())
	opt, err := char.OptimizeFrom(core.SeedsForGA(cands))
	sp.end()
	if err != nil {
		return fig5Result{}, err
	}
	char.Close()
	wall := time.Since(start)

	best, ok := opt.Database.Worst()
	if !ok {
		return fig5Result{}, fmt.Errorf("flow seed %d: optimization produced no worst-case test", seed)
	}
	meas := tester.Stats().Measurements
	if rec != nil {
		rec.add("genetic.runs", 1)
		rec.add("genetic.generations", float64(opt.GA.Generations))
		rec.add("genetic.evaluations", float64(opt.GA.Evaluations))
		rec.add("genetic.restarts", float64(opt.GA.Restarts))
		c.probeTests = learned.Tests
		c.probeEns = learned.Ensemble
	}
	return fig5Result{
		wall:   wall,
		meas:   meas,
		digest: fmt.Sprintf("fig5 wcr=%v tdq=%v class=%s meas=%d", best.WCR, best.Value, best.Class, meas),
	}, nil
}

// table1 runs core.RunTable1 with the CLI defaults on a fresh device.
func (c *charInstance) table1(seed int64, rec *recorder, trace string) (time.Duration, string, error) {
	start := time.Now()
	tester, err := newTester(seed)
	if err != nil {
		return 0, "", err
	}
	cfg := core.Table1Config{Flow: flowConfig(seed), RandomTests: randomTests, MarchWindowWords: marchWords}
	obs := rec.observer(trace, 0)
	cfg.Flow.Telemetry = obs.telemetry()
	sp := obs.call("core.RunTable1", 0)
	tab, err := core.RunTable1(cfg, tester)
	sp.end()
	wall := time.Since(start)
	if err != nil {
		return 0, "", err
	}
	var b strings.Builder
	b.WriteString("table1")
	for _, r := range tab.Rows {
		fmt.Fprintf(&b, " [%s wcr=%v tdq=%v class=%s meas=%d]", r.TestName, r.WCR, r.Value, r.Class, r.Measurements)
	}
	return wall, b.String(), nil
}

func (c *charInstance) pass(pc passConfig) (*passResult, error) {
	res := &passResult{}
	var table1s []float64
	start := time.Now()
	for i := 0; pc.more(i); i++ {
		slot := i % charSeeds
		seed := charSeed(c.e.seed, slot)
		trace := fmt.Sprintf("flow-%d", i)
		f, err := c.fig5(seed, pc.rec, trace)
		if err != nil {
			return nil, err
		}
		t1wall, t1digest, err := c.table1(seed, pc.rec, trace)
		if err != nil {
			return nil, err
		}
		if c.e.check.check(slot, f.digest+" | "+t1digest) {
			res.ops.ok()
		} else {
			res.ops.fail()
		}
		res.items++
		res.units++
		res.ateMeas += f.meas
		res.opSeconds = append(res.opSeconds, f.wall.Seconds())
		table1s = append(table1s, t1wall.Seconds())
	}
	res.wall = time.Since(start)
	fig5, ok5 := percentile(res.opSeconds, 0.5)
	t1, ok1 := percentile(table1s, 0.5)
	res.named = []namedMetric{
		{"fig5_s", fig5, "s", ok5},
		{"table1_s", t1, "s", ok1},
		{"ate_meas_per_flow", float64(res.ateMeas) / float64(res.items), "count", true},
	}
	return res, nil
}

func (c *charInstance) probes(m map[string]float64) error {
	seeds := make([]int64, charSeeds)
	for k := range seeds {
		seeds[k] = charSeed(c.e.seed, k)
	}
	return probeLayers(m, probeInputs{seeds: seeds, tests: c.probeTests, ensemble: c.probeEns})
}

func (c *charInstance) close() error { return nil }
