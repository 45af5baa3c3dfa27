package core

import "testing"

// The tentpole guarantee of internal/parallel: any Parallelism value
// produces bit-identical results for the same seed. These tests pin that
// for the GA optimization path, the Table 1 comparison, and the replicated
// experiment, and pin the memo-cache's measurement savings.

func optimizeWith(t *testing.T, seed int64, parallelism int, disableCache bool) *OptimizationResult {
	t.Helper()
	cfg := quickConfig(seed)
	cfg.Parallelism = parallelism
	cfg.DisableMeasurementCache = disableCache
	char, err := NewCharacterizer(cfg, newTester(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := char.Learn(); err != nil {
		t.Fatal(err)
	}
	res, err := char.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOptimizeDeterministicAcrossParallelism(t *testing.T) {
	serial := optimizeWith(t, 73, 1, false)
	for _, workers := range []int{2, 8} {
		par := optimizeWith(t, 73, workers, false)
		if par.GA.Best.Fitness != serial.GA.Best.Fitness {
			t.Errorf("parallelism=%d best fitness %g, serial %g", workers, par.GA.Best.Fitness, serial.GA.Best.Fitness)
		}
		if len(par.GA.BestHistory) != len(serial.GA.BestHistory) {
			t.Fatalf("parallelism=%d history length %d, serial %d", workers, len(par.GA.BestHistory), len(serial.GA.BestHistory))
		}
		for i := range serial.GA.BestHistory {
			if par.GA.BestHistory[i] != serial.GA.BestHistory[i] {
				t.Fatalf("parallelism=%d BestHistory[%d] = %g, serial %g", workers, i, par.GA.BestHistory[i], serial.GA.BestHistory[i])
			}
		}
		if par.GA.Evaluations != serial.GA.Evaluations {
			t.Errorf("parallelism=%d evaluations %d, serial %d", workers, par.GA.Evaluations, serial.GA.Evaluations)
		}
		if par.Measurements != serial.Measurements {
			t.Errorf("parallelism=%d measurements %d, serial %d", workers, par.Measurements, serial.Measurements)
		}
		if par.CacheHits != serial.CacheHits || par.CacheMisses != serial.CacheMisses {
			t.Errorf("parallelism=%d cache %d/%d, serial %d/%d",
				workers, par.CacheHits, par.CacheMisses, serial.CacheHits, serial.CacheMisses)
		}
		se, pe := serial.Database.Entries, par.Database.Entries
		if len(se) != len(pe) {
			t.Fatalf("parallelism=%d database size %d, serial %d", workers, len(pe), len(se))
		}
		for i := range se {
			if se[i].WCR != pe[i].WCR || se[i].Test.Name != pe[i].Test.Name {
				t.Fatalf("parallelism=%d database[%d] = %s/%g, serial %s/%g",
					workers, i, pe[i].Test.Name, pe[i].WCR, se[i].Test.Name, se[i].WCR)
			}
		}
	}
}

func TestProposeSeedsDeterministicAcrossParallelism(t *testing.T) {
	// The surrogate scoring pass fans ensemble voting across workers with
	// one scratch arena each; the ranked candidate list must stay
	// bit-identical for any worker count.
	proposeWith := func(parallelism int) []Candidate {
		cfg := quickConfig(41)
		cfg.Parallelism = parallelism
		char, err := NewCharacterizer(cfg, newTester(t, 41))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := char.Learn(); err != nil {
			t.Fatal(err)
		}
		cands, err := char.ProposeSeeds()
		if err != nil {
			t.Fatal(err)
		}
		return cands
	}
	serial := proposeWith(1)
	if len(serial) == 0 {
		t.Fatal("no candidates proposed")
	}
	for _, workers := range []int{2, 8} {
		par := proposeWith(workers)
		if len(par) != len(serial) {
			t.Fatalf("parallelism=%d proposed %d candidates, serial %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if par[i].Test.Name != serial[i].Test.Name ||
				par[i].Severity != serial[i].Severity ||
				par[i].Confidence != serial[i].Confidence {
				t.Fatalf("parallelism=%d candidate %d = %s/%g/%g, serial %s/%g/%g",
					workers, i, par[i].Test.Name, par[i].Severity, par[i].Confidence,
					serial[i].Test.Name, serial[i].Severity, serial[i].Confidence)
			}
		}
	}
}

func smallTable1Config(seed int64) Table1Config {
	return Table1Config{
		Flow:             quickConfig(seed),
		RandomTests:      80,
		MarchWindowWords: 30,
	}
}

func TestTable1DeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) *Table1 {
		cfg := smallTable1Config(71)
		cfg.Flow.Parallelism = parallelism
		tab, err := RunTable1(cfg, newTester(t, 71))
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	serial := run(1)
	par := run(8)
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		s, p := serial.Rows[i], par.Rows[i]
		if s != p {
			t.Errorf("row %d differs:\nserial   %+v\nparallel %+v", i, s, p)
		}
	}
}

func TestMeasurementCacheMemoizes(t *testing.T) {
	cfg := quickConfig(11)
	cfg.Parallelism = 3
	char, err := NewCharacterizer(cfg, newTester(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	eval := newParallelEvaluator(char)
	tests := char.Generator().Batch(5)
	// Duplicate content under a different name must share one measurement.
	dup := tests[2].Clone()
	dup.Name = "duplicate-of-2"
	tests = append(tests, dup)

	first, err := fitnessOf(eval, tests)
	if err != nil {
		t.Fatal(err)
	}
	if first[5] != first[2] {
		t.Errorf("structural duplicate measured differently: %g vs %g", first[5], first[2])
	}
	if eval.evaluations != 5 {
		t.Errorf("first batch performed %d searches, want 5 (dedupe)", eval.evaluations)
	}

	before := char.ATE().Stats().Measurements
	second, err := fitnessOf(eval, tests)
	if err != nil {
		t.Fatal(err)
	}
	if spent := char.ATE().Stats().Measurements - before; spent != 0 {
		t.Errorf("re-evaluating memoized tests spent %d ATE measurements", spent)
	}
	for i := range first {
		if second[i] != first[i] {
			t.Errorf("memoized fitness %d changed: %g vs %g", i, second[i], first[i])
		}
	}
	if eval.cacheHits() < int64(len(tests)) {
		t.Errorf("cache hits = %d, want at least %d", eval.cacheHits(), len(tests))
	}
}

func TestMeasurementCacheReducesGAWork(t *testing.T) {
	cached := optimizeWith(t, 73, 4, false)
	uncached := optimizeWith(t, 73, 4, true)
	if cached.CacheHits == 0 {
		t.Error("GA run produced no cache hits; duplicate individuals were expected")
	}
	if cached.Measurements >= uncached.Measurements {
		t.Errorf("cache did not reduce ATE measurements: cached %d, uncached %d",
			cached.Measurements, uncached.Measurements)
	}
	if uncached.CacheHits != 0 {
		t.Errorf("disabled cache reported %d hits", uncached.CacheHits)
	}
}

// TestParallelEvaluatorFixedConditions guards the GA contract that fixed
// conditions flow into every measured test (Table 1 pins Vdd 1.8 V).
func TestParallelEvaluatorFixedConditions(t *testing.T) {
	cfg := quickConfig(13)
	if cfg.FixedConditions == nil {
		t.Fatal("quickConfig should pin conditions")
	}
	char, err := NewCharacterizer(cfg, newTester(t, 13))
	if err != nil {
		t.Fatal(err)
	}
	eval := newParallelEvaluator(char)
	tt := char.Generator().Next()
	if tt.Cond != *cfg.FixedConditions {
		t.Fatalf("generator ignored fixed conditions: %+v", tt.Cond)
	}
	if _, err := eval.Fitness(tt); err != nil {
		t.Fatal(err)
	}
	if eval.evaluations != 1 {
		t.Errorf("single Fitness performed %d searches", eval.evaluations)
	}
}
