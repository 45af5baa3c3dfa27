package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/ate"
	"repro/internal/cachestore"
	"repro/internal/core"
	"repro/internal/dut"
	"repro/internal/parallel"
	"repro/internal/testgen"
	"repro/internal/wcr"
)

// The lot workloads: wafer lots of about 1000 dies per wafer screened with
// lotchar's built-in worst-case tests at 2 workers.
const (
	lotCount        = 4    // distinct lots per workload seed (golden slots)
	lotWafers       = 4    // wafers per lot
	lotDiesPerWafer = 1000 // large enough that per-die costs show
)

var lotWorkload = &workload{
	name: "lot",
	why: "the fab-scale path: a cold ScreenLotStream spends its time in ate reseeding and profile copies, " +
		"dut.WaferLot and fleet streaming, almost none in neural or genetic",
	golden:         "lot",
	minItems:       20,
	minTracedItems: 1,
	setup:          func(e *env) (instance, error) { return setupLot(e, false) },
}

var lotReplayWorkload = &workload{
	name: "lot_replay",
	why: "the same lots replayed from a cachestore filled during set-up: bypasses reseeding and the cell " +
		"lookup, and is the only workload that measures cachestore",
	golden:         "lot",
	minItems:       20,
	minTracedItems: 1,
	setup:          func(e *env) (instance, error) { return setupLot(e, true) },
}

// lotSeed is the lot (and screen base) seed of slot k.
func lotSeed(wseed int64, k int) int64 { return wseed*100 + int64(k) + 1 }

// lotTests is lotchar's screened set without a database: the built-in
// coordinated worst-case pattern plus a windowed March C-.
func lotTests() ([]testgen.Test, error) {
	cond := testgen.NominalConditions()
	words := dut.DefaultGeometry().Words()
	seq := make(testgen.Sequence, 0, 400)
	for i := 0; i < 200; i++ {
		base := uint32(0)
		if i%2 == 1 {
			base = words - 2
		}
		seq = append(seq,
			testgen.Vector{Op: testgen.OpWrite, Addr: base, Data: 0},
			testgen.Vector{Op: testgen.OpWrite, Addr: base + 1, Data: 0xFFFFFFFF},
		)
	}
	march, err := testgen.MarchTest(testgen.MarchCMinus(), 0, 100, 0x55555555, cond)
	if err != nil {
		return nil, err
	}
	return []testgen.Test{{Name: "WORST-BUILTIN", Seq: seq, Cond: cond}, march}, nil
}

type lotInstance struct {
	e      *env
	replay bool
	tests  []testgen.Test
	lots   []*dut.WaferLot
	fleet  *parallel.Fleet
	dir    string // replay: one cachestore directory per lot under it
}

// setupLot builds the tests, the lots and the fleet. The lot workload
// then screens lot 0 once untimed, to let the heap reach its working
// size; the replay workload screens every lot cold into a fresh store.
func setupLot(e *env, replay bool) (instance, error) {
	tests, err := lotTests()
	if err != nil {
		return nil, err
	}
	l := &lotInstance{e: e, replay: replay, tests: tests}
	for k := 0; k < lotCount; k++ {
		lot, err := dut.NewWaferLot(lotSeed(e.seed, k), lotWafers, lotDiesPerWafer)
		if err != nil {
			return nil, err
		}
		l.lots = append(l.lots, lot)
	}
	l.fleet = parallel.NewFleet(parallel.Bound(workers, l.lots[0].Len()))
	if !replay {
		if _, err := l.screen(0, nil, ""); err != nil {
			l.close()
			return nil, err
		}
		return l, nil
	}
	if l.dir, err = os.MkdirTemp(e.scratch, "lotcache-"); err != nil {
		l.close()
		return nil, err
	}
	for k := range l.lots {
		store, err := cachestore.Open(l.storeDir(k), core.LotCacheScope)
		if err != nil {
			l.close()
			return nil, err
		}
		rep, err := core.ScreenLotStream(ate.TDQ, l.tests, l.lots[k], dut.DefaultGeometry(), lotSeed(e.seed, k),
			core.LotOptions{Workers: workers, Fleet: l.fleet, Cache: store})
		if err != nil {
			l.close()
			return nil, err
		}
		// The cold result joins the check, so every replay must equal it.
		e.check.check(k, lotDigest(rep))
	}
	return l, nil
}

func (l *lotInstance) storeDir(k int) string { return filepath.Join(l.dir, fmt.Sprint(k)) }

// screen screens lot k once; a replay opens the lot's store first.
func (l *lotInstance) screen(k int, rec *recorder, trace string) (*core.LotReport, error) {
	opts := core.LotOptions{Workers: workers, Fleet: l.fleet}
	var store *cachestore.Store
	if l.replay {
		sp := rec.begin("cachestore.Open", trace, 0)
		var err error
		store, err = cachestore.Open(l.storeDir(k), core.LotCacheScope)
		sp.end()
		if err != nil {
			return nil, err
		}
		opts.Cache = store
	}
	obs := rec.observer(trace, 4*workers) // ScreenLotStream's default window
	opts.Telemetry = obs.telemetry()
	sp := obs.call("core.ScreenLotStream", 0)
	rep, err := core.ScreenLotStream(ate.TDQ, l.tests, l.lots[k], dut.DefaultGeometry(), lotSeed(l.e.seed, k), opts)
	sp.end()
	if err != nil {
		return nil, err
	}
	if store != nil && rec != nil {
		st := store.Stats()
		rec.add("cachestore.hits", float64(st.Hits))
		rec.add("cachestore.lookups", float64(st.Hits+st.Misses))
		rec.raise("cachestore.bytes_on_disk", float64(st.BytesOnDisk))
	}
	return rep, nil
}

// lotDigest covers the lot report's class counts, spread, worst die and
// measurement count.
func lotDigest(r *core.LotReport) string {
	classes := make([]wcr.Class, 0, len(r.ClassCounts))
	for c := range r.ClassCounts {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "dies=%d classes=", r.DieCount)
	for _, c := range classes {
		fmt.Fprintf(&b, "%s:%d,", c, r.ClassCounts[c])
	}
	w := r.WorstDie
	fmt.Fprintf(&b, " spread=%v worst=[die %d %s trip=%v test=%s wcr=%v %s] meas=%d",
		r.SpreadLot, w.DieID, w.Corner, w.WorstTrip, w.WorstTest, w.WCR, w.Class, r.Measurements)
	return b.String()
}

func (l *lotInstance) pass(pc passConfig) (*passResult, error) {
	res := &passResult{}
	start := time.Now()
	for i := 0; pc.more(i); i++ {
		k := i % lotCount
		opStart := time.Now()
		rep, err := l.screen(k, pc.rec, fmt.Sprintf("lot-%d", i))
		if err != nil {
			return nil, err
		}
		res.opSeconds = append(res.opSeconds, time.Since(opStart).Seconds())
		if l.e.check.check(k, lotDigest(rep)) {
			res.ops.ok()
		} else {
			res.ops.fail()
		}
		res.items++
		res.units += rep.DieCount
		res.ateMeas += rep.Measurements
	}
	res.wall = time.Since(start)
	screen, ok := percentile(res.opSeconds, 0.5)
	res.named = []namedMetric{
		{"lot_dies_per_s", float64(res.units) / res.wall.Seconds(), "1/s", true},
		{"ate_meas_per_die", float64(res.ateMeas) / float64(res.units), "count", true},
		{"lot_screen_p50_s", screen, "s", ok},
	}
	return res, nil
}

func (l *lotInstance) probes(m map[string]float64) error {
	in := probeInputs{tests: l.tests, lots: l.lots}
	for k, lot := range l.lots {
		for i := 0; i < lot.Len(); i++ {
			in.seeds = append(in.seeds, lotSeed(l.e.seed, k)+int64(lot.Die(i).ID))
		}
	}
	in.newLot = func(k int) (*dut.WaferLot, error) {
		return dut.NewWaferLot(lotSeed(l.e.seed, k%lotCount), lotWafers, lotDiesPerWafer)
	}
	return probeLayers(m, in)
}

func (l *lotInstance) close() error {
	if l.fleet != nil {
		l.fleet.Close()
		l.fleet = nil
	}
	if l.dir != "" {
		err := os.RemoveAll(l.dir)
		l.dir = ""
		return err
	}
	return nil
}
