package core

import (
	"math"
	"testing"

	"repro/internal/testgen"
)

// resolveScenario feeds one evaluator two GA-shaped batches covering every
// resolve outcome — in-batch duplicates (including a renamed structural
// clone), pre-batch memo hits, primed disk-recovered entries and, through
// a small cache cap, inserts dropped at capacity — and returns a digest of
// what each batch reports: the fitness bits, the memo-cache hit, miss and
// drop deltas, the task counter, the search count and the merged tester
// cost.
func resolveScenario(t *testing.T, parallelism int, disableCache bool) string {
	t.Helper()
	const seed = 71
	cfg := quickConfig(seed)
	cfg.Parallelism = parallelism
	cfg.DisableMeasurementCache = disableCache
	char, err := NewCharacterizer(cfg, newTester(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	defer char.Close()
	gen := char.Generator()
	primed := gen.Batch(3)
	char.primed = map[uint64]float64{}
	for i, p := range primed {
		char.primed[p.Fingerprint()] = 0.5 + 0.25*float64(i)
	}
	eval := newParallelEvaluator(char)
	if eval.cache != nil {
		// Three primed entries plus room for 13 more: the second batch's
		// inserts overflow.
		eval.cache.SetLimit(16)
	}

	fresh := gen.Batch(10)
	clone := fresh[3].Clone()
	clone.Name = "renamed-clone-of-3"
	batch1 := append(append([]testgen.Test{}, fresh[:8]...), fresh[2], primed[0], clone, fresh[5], fresh[2])

	more := gen.Batch(9)
	batch2 := []testgen.Test{fresh[1], more[0], more[1], primed[1], fresh[8], more[0], fresh[6],
		more[2], more[3], more[4], more[5], more[6], more[7], more[8], more[2], fresh[9], primed[2], fresh[0]}

	var parts []any
	for _, batch := range [][]testgen.Test{batch1, batch2} {
		var hits, misses, dropped int64
		if eval.cache != nil {
			hits, misses, dropped = eval.cache.Hits(), eval.cache.Misses(), eval.cache.Dropped()
		}
		fits, err := fitnessOf(eval, batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fits {
			parts = append(parts, math.Float64bits(f))
		}
		if eval.cache != nil {
			hits, misses, dropped = eval.cache.Hits()-hits, eval.cache.Misses()-misses, eval.cache.Dropped()-dropped
		}
		parts = append(parts, hits, misses, dropped, eval.taskSeq, eval.evaluations, char.ATE().Stats())
	}
	return digest(parts...)
}

// Recorded from the generation-at-once FitnessBatch, which resolved the
// whole batch (one batched cache lookup, then dedupe) before measuring
// anything: the streamed resolve must reproduce it exactly, with and
// without the memo-cache.
const (
	recordedResolveDigestCached   = "f159ed49a514b35154a24db8552f983633f3963b5b7e8ca15798153aa2b38ab2"
	recordedResolveDigestUncached = "50216e1a6d605f9f1648090344be8f6c6e14fd22f8470a7807fbb973d2bf0060"
)

// TestFitnessStreamResolveMatchesRecordedBatch pins the streamed,
// child-by-child resolve to the batch resolve it replaced at fleet sizes
// 1, 2 and 8.
func TestFitnessStreamResolveMatchesRecordedBatch(t *testing.T) {
	for _, mode := range []struct {
		disableCache bool
		want         string
	}{{false, recordedResolveDigestCached}, {true, recordedResolveDigestUncached}} {
		for _, parallelism := range equivalenceFleetSizes {
			if got := resolveScenario(t, parallelism, mode.disableCache); got != mode.want {
				t.Errorf("parallelism=%d disableCache=%v: resolve digest %s, recorded %s",
					parallelism, mode.disableCache, got, mode.want)
			}
		}
	}
}
