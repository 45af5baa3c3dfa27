package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/ate"
	"repro/internal/cachestore"
	"repro/internal/dut"
	"repro/internal/parallel"
	"repro/internal/search"
	"repro/internal/telemetry"
	"repro/internal/testgen"
	"repro/internal/trippoint"
	"repro/internal/wcr"
)

// Streamed lot screening: the one lot-screen entry point. Three properties
// distinguish it from a per-die loop:
//
//   - Bounded memory. Dies stream through the worker fleet in chunks of
//     lotChunk consecutive dies, at most BatchSize dies in flight; nothing
//     O(lot) is buffered unless the caller asks for per-die results.
//     Population statistics (mean, spread, corner worst cases, drift,
//     outliers) accumulate in O(1) per die.
//   - Shared work. Each worker owns one device and one tester insertion
//     for the whole lot (Retarget/Reseed per die instead of reallocating),
//     and a lot-wide dut.ProfileBank executes each test pattern once
//     instead of once per die — activity is die-independent for clean
//     dies, so tens of thousands of dies share a handful of executions.
//   - Durable measurements. With a cachestore attached, each die's screen
//     outcome (result + full tester cost) persists keyed by the content of
//     the die, the test set and the seed; a second identical run replays
//     from disk with bit-identical LotReport output.
//
// Determinism: the whole lot is one fleet stage. Each worker builds its
// chunk's dies, looks them up in the cache and screens the misses with
// per-die seeds; a hit replays exactly the record a miss would compute, so
// what a worker produces for a die does not depend on which worker ran it
// or when. The coordinator merges chunk by chunk in lot order — cache
// inserts, aggregates, outliers, drift and telemetry — so the report, the
// telemetry event stream and the cache segment bytes are bit-identical at
// any worker count, any batch size, and cache cold or warm.

// lotChunk is the fleet task of a lot screen: this many consecutive dies
// per task amortize the stage's per-task synchronization over a cache-hit
// replay of about a microsecond per die.
const lotChunk = 16

// LotOptions configures ScreenLotStream. The zero value screens with one
// worker per CPU, an automatic batch size, no disk cache, no retained
// per-die results and no telemetry.
type LotOptions struct {
	// Workers is the concurrent tester-insertion count (multi-site
	// testing); values below 1 select one per CPU.
	Workers int
	// Fleet, when non-nil, runs the screen on this persistent worker fleet
	// instead of one the screen creates for the lot, so a caller screening
	// many lots starts its worker goroutines once. Overrides Workers for
	// sizing. The report is bit-identical either way.
	Fleet *parallel.Fleet
	// BatchSize bounds the run-ahead in dies: a die is not built until
	// the die BatchSize places before it has been merged. Values below 1
	// pick 64× the worker count. Batch size never changes results, only
	// peak memory.
	BatchSize int
	// RetainDies keeps every per-die result in LotReport.Dies — O(lot)
	// memory. Leave false for fab-scale lots; the streaming aggregates and
	// the outlier set remain available.
	RetainDies bool
	// Cache, when non-nil, serves dies whose screen outcome is already on
	// disk and persists newly screened dies (one Flush at the end of the
	// lot).
	Cache *cachestore.Store
	// Telemetry receives the lot-screen phase, per-die events and progress
	// items; nil disables instrumentation.
	Telemetry *telemetry.Telemetry
	// TopOutliers is how many population outliers to track per tail
	// (values below 1 pick 8).
	TopOutliers int
	// OutlierZ is the |z|-score threshold for reporting a die as an
	// outlier (values ≤ 0 pick 3).
	OutlierZ float64
}

// lotWorker is one worker's reusable screening state: a device and a
// tester insertion that are retargeted/reseeded per die.
type lotWorker struct {
	dev    *dut.Device
	tester *ate.ATE
}

// screen measures one die, bit-identical to the frozen screenDie but on
// reused hardware state.
func (wk *lotWorker) screen(param ate.Parameter, tests []testgen.Test, die *dut.Die, seed int64) (DieResult, ate.Stats, error) {
	if err := wk.dev.Retarget(die); err != nil {
		return DieResult{}, ate.Stats{}, fmt.Errorf("core: die %d: %w", die.ID, err)
	}
	wk.tester.Reseed(seed)

	spec, isMin := param.SpecValue()
	worseThan := func(a, b float64) bool {
		if isMin {
			return a < b
		}
		return a > b
	}
	runner := trippoint.NewRunner(wk.tester, param)
	runner.Searcher = &search.SUTP{Refine: true}

	dr := DieResult{DieID: die.ID, Corner: die.Corner}
	worst := math.Inf(1)
	if !isMin {
		worst = math.Inf(-1)
	}
	for _, t := range tests {
		m, err := runner.Measure(t)
		if err != nil {
			return DieResult{}, ate.Stats{}, fmt.Errorf("core: die %d test %s: %w", die.ID, t.Name, err)
		}
		if m.Converged && worseThan(m.TripPoint, worst) {
			worst = m.TripPoint
			dr.WorstTest = t.Name
		}
		ok, err := wk.tester.FunctionalPass(t)
		if err != nil {
			return DieResult{}, ate.Stats{}, err
		}
		if !ok {
			dr.FunctionalFails++
		}
	}
	if math.IsInf(worst, 0) {
		return DieResult{}, ate.Stats{}, fmt.Errorf("core: die %d: no test converged", die.ID)
	}
	dr.WorstTrip = worst
	dr.WCR = wcr.For(worst, spec, isMin)
	dr.Class = wcr.Classify(dr.WCR)
	return dr, wk.tester.Stats(), nil
}

// ScreenLotStream screens every die of the source through the streaming
// pipeline and returns the aggregated report. See LotOptions for the
// knobs; per-die results need RetainDies.
//
// With a cache attached, its hit and miss counters are pinned only for
// lots of distinct dies. When a die repeats within a lot, whether its
// second lookup hits depends on whether the first was merged yet, which
// depends on scheduling; the report and the segment bytes do not.
func ScreenLotStream(param ate.Parameter, tests []testgen.Test, src dut.DieSource, geom dut.Geometry, baseSeed int64, opts LotOptions) (*LotReport, error) {
	if len(tests) == 0 {
		return nil, fmt.Errorf("core: lot screen needs at least one test")
	}
	if src == nil || src.Len() == 0 {
		return nil, fmt.Errorf("core: empty die lot")
	}
	n := src.Len()
	fleet := opts.Fleet
	if fleet == nil {
		fleet = parallel.NewFleet(parallel.Bound(opts.Workers, n))
		defer fleet.Close()
	}
	batch := opts.BatchSize
	if batch < 1 {
		batch = 64 * fleet.Size()
	}
	batch = min(batch, n)
	chunk := min(lotChunk, batch)
	topK := opts.TopOutliers
	if topK < 1 {
		topK = 8
	}
	zThresh := opts.OutlierZ
	if zThresh <= 0 {
		zThresh = 3
	}

	tel := opts.Telemetry
	ph := tel.StartPhase("lot-screen")

	bank, err := dut.NewProfileBank(geom, dut.DefaultPhysics())
	if err != nil {
		return nil, err
	}

	// The lot is one fleet stage, so each worker builds its device and
	// tester once per lot: construction cost (array allocation) is paid
	// once per worker, not once per die.
	placeholder := dut.NewDie(-1, dut.CornerTypical)
	newWorker := func(int) (*lotWorker, error) {
		dev, err := dut.NewDevice(geom, placeholder)
		if err != nil {
			return nil, err
		}
		tester := ate.New(dev, baseSeed)
		tester.Profiler = bank.Profile
		return &lotWorker{dev: dev, tester: tester}, nil
	}

	lotKey := lotCacheKey(param, geom, tests, baseSeed)

	_, isMin := param.SpecValue()
	worseThan := func(a, b float64) bool {
		if isMin {
			return a < b
		}
		return a > b
	}
	rep := &LotReport{
		Parameter:      param,
		Tests:          len(tests),
		ClassCounts:    make(map[wcr.Class]int),
		PerCornerWorst: make(map[dut.Corner]float64),
	}
	var (
		sumWorst           float64
		minWorst, maxWorst = math.Inf(1), math.Inf(-1)
		first              = true
		drift              trippoint.DriftAccumulator
		outliers           = trippoint.NewOutlierTracker(topK)
	)

	type slot struct {
		key       uint64
		dr        DieResult
		cost      ate.Stats
		fromCache bool
	}
	ring := make([]slot, batch)
	chunks := (n + chunk - 1) / chunk

	// Worker side: build, look up and screen every die of the chunk. A
	// cache hit replays the exact record a miss would compute; per-die
	// seeds keep every measurement stream independent of worker count and
	// chunk placement.
	screenChunk := func(wk *lotWorker, c int) error {
		for i := c * chunk; i < min(n, (c+1)*chunk); i++ {
			die := src.Die(i)
			s := &ring[i%len(ring)]
			*s = slot{}
			if opts.Cache != nil {
				s.key = dieCacheKey(lotKey, die)
				if raw, ok := opts.Cache.Get(s.key); ok {
					if dr, cost, ok := decodeDieRecord(raw); ok && dr.DieID == die.ID {
						s.dr, s.cost, s.fromCache = dr, cost, true
						continue
					}
				}
			}
			dr, cost, err := wk.screen(param, tests, die, baseSeed+int64(die.ID))
			if err != nil {
				return err
			}
			s.dr, s.cost = dr, cost
		}
		return nil
	}

	// Coordinator side: merge in lot order, so aggregation, cache inserts
	// (deterministic segment bytes) and telemetry all see the same
	// sequence at any worker count.
	merge := func(c int) error {
		for i := c * chunk; i < min(n, (c+1)*chunk); i++ {
			s := &ring[i%len(ring)]
			dr, cost := s.dr, s.cost
			if opts.Cache != nil && !s.fromCache {
				opts.Cache.Put(s.key, encodeDieRecord(dr, cost))
			}
			tel.RecordItem("die", i+1, n)
			if opts.RetainDies {
				rep.Dies = append(rep.Dies, dr)
			}
			rep.DieCount++
			rep.ClassCounts[dr.Class]++
			rep.Measurements += cost.Measurements
			rep.Stats.Add(cost)
			if sp := ph.Span(); sp != nil {
				sp.Event("die",
					telemetry.I("die", dr.DieID),
					telemetry.S("corner", dr.Corner.String()),
					telemetry.F("worst_trip", dr.WorstTrip),
					telemetry.F("wcr", dr.WCR),
					telemetry.I("measurements", cost.Measurements),
				)
			}

			sumWorst += dr.WorstTrip
			minWorst = math.Min(minWorst, dr.WorstTrip)
			maxWorst = math.Max(maxWorst, dr.WorstTrip)
			if cur, ok := rep.PerCornerWorst[dr.Corner]; !ok || worseThan(dr.WorstTrip, cur) {
				rep.PerCornerWorst[dr.Corner] = dr.WorstTrip
			}
			if first || dr.WCR > rep.WorstDie.WCR {
				rep.WorstDie = dr
				first = false
			}
			drift.Add(float64(i), dr.WorstTrip)
			outliers.Add(dr.DieID, dr.WorstTrip)
		}
		return nil
	}

	// A window of batch/chunk chunks keeps every claimed-but-unmerged die
	// within batch consecutive lot indices, so ring slots never collide.
	if err := parallel.Stream(fleet, chunks, batch/chunk, newWorker, screenChunk, merge); err != nil {
		return nil, err
	}

	rep.MeanWorstTrip = sumWorst / float64(n)
	rep.SpreadLot = maxWorst - minWorst
	rep.Drift = drift.Report()
	rep.Outliers = outliers.Report(zThresh)

	if opts.Cache != nil {
		if _, err := opts.Cache.Flush(); err != nil {
			return nil, fmt.Errorf("core: persisting lot cache: %w", err)
		}
		st := opts.Cache.Stats()
		tel.RecordDiskCache(telemetry.DiskCacheStats{
			LoadedEntries:  st.LoadedEntries,
			LoadedSegments: st.LoadedSegments,
			Hits:           st.Hits,
			Misses:         st.Misses,
			FlushedEntries: st.FlushedEntries,
			BytesOnDisk:    st.BytesOnDisk,
		})
	}
	ph.End(telCost(rep.Stats))
	return rep, nil
}

// lotCacheKey fingerprints everything a die's screen outcome depends on
// besides the die itself: parameter, geometry, the ordered test set
// (structural fingerprints — names don't matter) and the seed base.
func lotCacheKey(param ate.Parameter, geom dut.Geometry, tests []testgen.Test, baseSeed int64) uint64 {
	h := fnvMix(fnvOffset, uint64(param))
	h = fnvMix(h, uint64(geom.Banks))
	h = fnvMix(h, uint64(geom.Rows))
	h = fnvMix(h, uint64(geom.Cols))
	h = fnvMix(h, uint64(baseSeed))
	h = fnvMix(h, uint64(len(tests)))
	for _, t := range tests {
		h = fnvMix(h, t.Fingerprint())
	}
	return h
}

// dieCacheKey extends the lot key with the die's content fingerprint.
func dieCacheKey(lotKey uint64, die *dut.Die) uint64 {
	return fnvMix(lotKey, die.Fingerprint())
}

// dieRecordVersion tags the on-disk die-record encoding; bump on any
// layout change so stale segments read as misses, never as garbage.
const dieRecordVersion = 1

// LotCacheScope is the cachestore scope under which lot die records
// persist. Binaries pass it to cachestore.Open so segments written by
// other record families (or by a future incompatible die-record layout,
// which bumps this constant alongside dieRecordVersion) are skipped at
// load instead of misread.
const LotCacheScope uint64 = 0x4c4f545631 // "LOTV1"

// encodeDieRecord serializes one die's screen outcome — result plus the
// complete tester cost, so a warm run replays exact accounting.
func encodeDieRecord(dr DieResult, cost ate.Stats) []byte {
	buf := make([]byte, 0, 96+len(dr.WorstTest))
	buf = append(buf, dieRecordVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(dr.DieID)))
	buf = append(buf, byte(dr.Corner))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(dr.WorstTrip))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(dr.WCR))
	buf = append(buf, byte(dr.Class))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(dr.FunctionalFails)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(dr.WorstTest)))
	buf = append(buf, dr.WorstTest...)

	buf = binary.LittleEndian.AppendUint64(buf, uint64(cost.Measurements))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cost.VectorsApplied))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cost.TestTimeSec))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cost.Profiles))
	buf = append(buf, byte(len(cost.PerParam)))
	for _, v := range cost.PerParam {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cost.Functional))
	return buf
}

// decodeDieRecord parses encodeDieRecord's output; ok is false on any
// framing or version mismatch (treated as a cache miss by the caller).
func decodeDieRecord(raw []byte) (dr DieResult, cost ate.Stats, ok bool) {
	r := recReader{buf: raw}
	if r.u8() != dieRecordVersion {
		return DieResult{}, ate.Stats{}, false
	}
	dr.DieID = int(int64(r.u64()))
	dr.Corner = dut.Corner(r.u8())
	dr.WorstTrip = math.Float64frombits(r.u64())
	dr.WCR = math.Float64frombits(r.u64())
	dr.Class = wcr.Class(r.u8())
	dr.FunctionalFails = int(int64(r.u64()))
	dr.WorstTest = r.str()

	cost.Measurements = int64(r.u64())
	cost.VectorsApplied = int64(r.u64())
	cost.TestTimeSec = math.Float64frombits(r.u64())
	cost.Profiles = int64(r.u64())
	if int(r.u8()) != len(cost.PerParam) {
		return DieResult{}, ate.Stats{}, false
	}
	for i := range cost.PerParam {
		cost.PerParam[i] = int64(r.u64())
	}
	cost.Functional = int64(r.u64())
	if r.failed || r.pos != len(raw) {
		return DieResult{}, ate.Stats{}, false
	}
	return dr, cost, true
}

// recReader is a bounds-checked little-endian cursor over a die record.
type recReader struct {
	buf    []byte
	pos    int
	failed bool
}

func (r *recReader) u8() byte {
	if r.failed || r.pos+1 > len(r.buf) {
		r.failed = true
		return 0
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

func (r *recReader) u64() uint64 {
	if r.failed || r.pos+8 > len(r.buf) {
		r.failed = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

func (r *recReader) str() string {
	if r.failed || r.pos+4 > len(r.buf) {
		r.failed = true
		return ""
	}
	n := int(binary.LittleEndian.Uint32(r.buf[r.pos:]))
	r.pos += 4
	if n < 0 || r.pos+n > len(r.buf) {
		r.failed = true
		return ""
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s
}
