package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ate"
	"repro/internal/cachestore"
	"repro/internal/dut"
	"repro/internal/proptest"
	"repro/internal/wcr"
)

// lotPerDieDigest is the full LotReport digest of the lot below, recorded
// when ScreenLotStream without a caller fleet still forked a transient
// pool per window (and identical at every worker count and batch size
// there). It now creates one fleet for the whole lot, which may change
// only the fan-out shape, never a reported number.
const lotPerDieDigest = "e23e55ecc2c6147605f4eb1be32124ef2ef0772c1d192d6da01b799da9ac1822"

// The frozen legacy reference: screenDie in a serial per-die loop is the
// pre-streaming implementation. Every streamed configuration must
// reproduce its per-die outcomes and summed cost bit for bit, and the
// whole report must keep its recorded digest.
func TestScreenLotStreamMatchesLegacyPerDieLoop(t *testing.T) {
	tests := lotTests(t)
	dies := dut.NewDieLot(31, 10)
	geom := dut.DefaultGeometry()
	const seed = 31

	want := make([]DieResult, len(dies))
	wantCost := make([]ate.Stats, len(dies))
	var wantTotal ate.Stats
	for i, die := range dies {
		dr, cost, err := screenDie(ate.TDQ, tests, die, geom, seed+int64(die.ID))
		if err != nil {
			t.Fatal(err)
		}
		want[i], wantCost[i] = dr, cost
		wantTotal.Add(cost)
	}

	for _, workers := range []int{1, 2, 8} {
		for _, batch := range []int{0, 1, 3, 5, 16, 17, 64} {
			rep, err := ScreenLotStream(ate.TDQ, tests, dut.LotSlice(dies), geom, seed, LotOptions{
				Workers: workers, BatchSize: batch, RetainDies: true,
			})
			if err != nil {
				t.Fatalf("workers=%d batch=%d: %v", workers, batch, err)
			}
			if len(rep.Dies) != len(want) || rep.DieCount != len(want) {
				t.Fatalf("workers=%d batch=%d: %d dies (count %d)", workers, batch, len(rep.Dies), rep.DieCount)
			}
			var totalMeas int64
			for i := range want {
				if rep.Dies[i] != want[i] {
					t.Errorf("workers=%d batch=%d die %d: %+v, legacy %+v", workers, batch, i, rep.Dies[i], want[i])
				}
				totalMeas += wantCost[i].Measurements
			}
			if rep.Measurements != totalMeas {
				t.Errorf("workers=%d batch=%d: measurements %d, legacy %d", workers, batch, rep.Measurements, totalMeas)
			}
			if rep.Stats != wantTotal {
				t.Errorf("workers=%d batch=%d: cost %+v, legacy %+v", workers, batch, rep.Stats, wantTotal)
			}
			if got := lotDigest(rep); got != lotPerDieDigest {
				t.Errorf("workers=%d batch=%d: report digest %s, recorded %s", workers, batch, got, lotPerDieDigest)
			}
		}
	}
}

// Full-report bit-identity across worker counts, batch sizes and cache
// cold/warm — the acceptance criterion of the streamed pipeline.
func TestScreenLotStreamReportInvariance(t *testing.T) {
	tests := lotTests(t)
	lot, err := dut.NewWaferLot(5, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	geom := dut.DefaultGeometry()
	const seed = 37

	baseline, err := ScreenLotStream(ate.TDQ, tests, lot, geom, seed, LotOptions{Workers: 1, RetainDies: true})
	if err != nil {
		t.Fatal(err)
	}
	if baseline.DieCount != lot.Len() {
		t.Fatalf("DieCount = %d, want %d", baseline.DieCount, lot.Len())
	}

	dir := t.TempDir()
	configs := []struct {
		name    string
		workers int
		batch   int
		cached  bool
	}{
		{"w2", 2, 0, false},
		{"w8-smallbatch", 8, 2, false},
		{"w4-cold", 4, 0, true}, // populates the disk cache
		{"w1-warm", 1, 5, true}, // must serve from disk, bit-identical
		{"w8-warm", 8, 64, true},
	}
	for _, cfg := range configs {
		opts := LotOptions{Workers: cfg.workers, BatchSize: cfg.batch, RetainDies: true}
		if cfg.cached {
			store, err := cachestore.Open(dir, 42)
			if err != nil {
				t.Fatal(err)
			}
			opts.Cache = store
		}
		rep, err := ScreenLotStream(ate.TDQ, tests, lot, geom, seed, opts)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if !reflect.DeepEqual(rep, baseline) {
			t.Errorf("%s: report differs from baseline\n got: %+v\nwant: %+v", cfg.name, rep, baseline)
		}
	}

	// The final warm run must have served every die from disk.
	store, err := cachestore.Open(dir, 42)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := ScreenLotStream(ate.TDQ, tests, lot, geom, seed, LotOptions{
		Workers: 2, RetainDies: true, Cache: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, baseline) {
		t.Error("warm report differs from baseline")
	}
	st := store.Stats()
	if st.Hits != int64(lot.Len()) || st.Misses != 0 {
		t.Errorf("warm run: %d hits / %d misses, want %d / 0", st.Hits, st.Misses, lot.Len())
	}

	// Chunk and ring edges: 500 dies is not a multiple of lotChunk and
	// outgrows every ring below, and the batch sizes straddle one chunk.
	// Every shape must match the workers=1 baseline cold and warm, and the
	// cold runs must write byte-identical cache segments.
	big, err := dut.NewWaferLot(6, 2, 250)
	if err != nil {
		t.Fatal(err)
	}
	bigBaseline, err := ScreenLotStream(ate.TDQ, tests, big, geom, seed, LotOptions{Workers: 1, RetainDies: true})
	if err != nil {
		t.Fatal(err)
	}
	var wantSegments map[string]string
	for _, workers := range []int{1, 2, 8} {
		for _, batch := range []int{0, 1, 15, 16, 17, 200} {
			dir := t.TempDir()
			for _, pass := range []string{"cold", "warm"} {
				name := fmt.Sprintf("500 dies w%d b%d %s", workers, batch, pass)
				store, err := cachestore.Open(dir, 42)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := ScreenLotStream(ate.TDQ, tests, big, geom, seed, LotOptions{
					Workers: workers, BatchSize: batch, RetainDies: true, Cache: store,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(rep, bigBaseline) {
					t.Errorf("%s: report differs from the workers=1 baseline", name)
				}
				st := store.Stats()
				if pass == "warm" && (st.Hits != int64(big.Len()) || st.Misses != 0) {
					t.Errorf("%s: %d hits / %d misses, want %d / 0", name, st.Hits, st.Misses, big.Len())
				}
			}
			segments := readDir(t, dir)
			if wantSegments == nil {
				wantSegments = segments
			} else if !reflect.DeepEqual(segments, wantSegments) {
				t.Errorf("500 dies w%d b%d: cache segments differ from w1 b0", workers, batch)
			}
		}
	}
}

// readDir returns every file of dir by name, contents as a string.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(raw)
	}
	return files
}

// A die that occurs twice in a lot may be screened twice or replayed from
// the cache, depending on whether its first occurrence was merged before
// the second was looked up. The report cannot tell: a hit replays exactly
// the record a miss computes.
func TestScreenLotStreamDuplicateDies(t *testing.T) {
	tests := lotTests(t)[:2]
	dies := dut.NewDieLot(47, 24)
	// dies[20] repeats within its chunk; dies[3] repeats in the next chunk
	// and then back to back.
	lot := append(append(dut.LotSlice{}, dies...), dies[20], dies[3], dies[3])
	geom := dut.DefaultGeometry()
	const seed = 47

	want, err := ScreenLotStream(ate.TDQ, tests, lot, geom, seed, LotOptions{Workers: 1, RetainDies: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		for _, batch := range []int{0, 1, 17} {
			store, err := cachestore.Open(t.TempDir(), 42)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := ScreenLotStream(ate.TDQ, tests, lot, geom, seed, LotOptions{
				Workers: workers, BatchSize: batch, RetainDies: true, Cache: store,
			})
			if err != nil {
				t.Fatalf("workers=%d batch=%d: %v", workers, batch, err)
			}
			if !reflect.DeepEqual(rep, want) {
				t.Errorf("workers=%d batch=%d: report with repeated dies differs from the uncached workers=1 run", workers, batch)
			}
			// One worker merges each chunk before it looks up the next, so
			// the repeats of dies[3] must have replayed from the cache.
			if st := store.Stats(); workers == 1 && st.Hits == 0 {
				t.Errorf("batch=%d: one worker served no repeated die from the cache", batch)
			}
		}
	}
}

// A partially warm cache serves the overlap and computes the rest; the
// report still matches an all-cold run.
func TestScreenLotStreamPartialWarm(t *testing.T) {
	tests := lotTests(t)[:2]
	dies := dut.NewDieLot(41, 8)
	geom := dut.DefaultGeometry()
	dir := t.TempDir()
	const seed = 41

	s1, err := cachestore.Open(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScreenLotStream(ate.TDQ, tests, dut.LotSlice(dies[:5]), geom, seed, LotOptions{Cache: s1}); err != nil {
		t.Fatal(err)
	}

	s2, err := cachestore.Open(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := ScreenLotStream(ate.TDQ, tests, dut.LotSlice(dies), geom, seed, LotOptions{RetainDies: true})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := ScreenLotStream(ate.TDQ, tests, dut.LotSlice(dies), geom, seed, LotOptions{RetainDies: true, Cache: s2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, mixed) {
		t.Error("partially warm report differs from cold")
	}
	st := s2.Stats()
	if st.Hits != 5 || st.Misses != 3 {
		t.Errorf("hits/misses = %d/%d, want 5/3", st.Hits, st.Misses)
	}
}

// Cache keys are content-addressed: a different seed, test set or die must
// never hit another configuration's entries.
func TestScreenLotStreamCacheKeyedByContent(t *testing.T) {
	tests := lotTests(t)[:2]
	dies := dut.NewDieLot(43, 4)
	geom := dut.DefaultGeometry()
	dir := t.TempDir()

	s1, _ := cachestore.Open(dir, 7)
	if _, err := ScreenLotStream(ate.TDQ, tests, dut.LotSlice(dies), geom, 43, LotOptions{Cache: s1}); err != nil {
		t.Fatal(err)
	}

	// Different base seed → different measurement noise → no hits allowed.
	s2, _ := cachestore.Open(dir, 7)
	if _, err := ScreenLotStream(ate.TDQ, tests, dut.LotSlice(dies), geom, 44, LotOptions{Cache: s2}); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Hits != 0 {
		t.Errorf("cross-seed cache hits: %d", st.Hits)
	}

	// Different test subset → different outcomes → no hits allowed.
	s3, _ := cachestore.Open(dir, 7)
	if _, err := ScreenLotStream(ate.TDQ, tests[:1], dut.LotSlice(dies), geom, 43, LotOptions{Cache: s3}); err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.Hits != 0 {
		t.Errorf("cross-test-set cache hits: %d", st.Hits)
	}
}

// Streamed fab-scale mode: per-die results dropped, aggregates intact.
func TestScreenLotStreamUnretained(t *testing.T) {
	tests := lotTests(t)[:2]
	lot, err := dut.NewWaferLot(3, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	geom := dut.DefaultGeometry()

	full, err := ScreenLotStream(ate.TDQ, tests, lot, geom, 3, LotOptions{Workers: 2, RetainDies: true})
	if err != nil {
		t.Fatal(err)
	}
	lean, err := ScreenLotStream(ate.TDQ, tests, lot, geom, 3, LotOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if lean.Dies != nil {
		t.Errorf("unretained run kept %d per-die results", len(lean.Dies))
	}
	if lean.DieCount != 30 {
		t.Errorf("DieCount = %d", lean.DieCount)
	}
	// Everything except Dies must match the retained run.
	full.Dies = nil
	if !reflect.DeepEqual(full, lean) {
		t.Errorf("aggregates differ:\n got: %+v\nwant: %+v", lean, full)
	}
	if lean.Drift.N != 30 {
		t.Errorf("drift over %d dies", lean.Drift.N)
	}
}

func TestScreenLotStreamValidation(t *testing.T) {
	if _, err := ScreenLotStream(ate.TDQ, nil, dut.LotSlice(dut.NewDieLot(1, 2)), dut.DefaultGeometry(), 1, LotOptions{}); err == nil {
		t.Error("empty test set accepted")
	}
	if _, err := ScreenLotStream(ate.TDQ, lotTests(t), dut.LotSlice(nil), dut.DefaultGeometry(), 1, LotOptions{}); err == nil {
		t.Error("empty source accepted")
	}
	if _, err := ScreenLotStream(ate.TDQ, lotTests(t), nil, dut.DefaultGeometry(), 1, LotOptions{}); err == nil {
		t.Error("nil source accepted")
	}
}

// Die-record round-trip closure over adversarial values, plus rejection of
// truncations and version flips.
func TestDieRecordRoundTrip(t *testing.T) {
	proptest.Check(t, 60, func(pt *proptest.T) {
		dr := DieResult{
			DieID:           pt.Intn(1 << 20),
			Corner:          dut.Corner(pt.Intn(3)),
			WorstTrip:       pt.FiniteFloat(),
			WorstTest:       pt.String("abcXYZ0123-_@", 40),
			WCR:             pt.FiniteFloat(),
			Class:           wcr.Class(pt.Intn(3)),
			FunctionalFails: pt.Intn(100),
		}
		var cost ate.Stats
		cost.Measurements = int64(pt.Intn(1 << 30))
		cost.VectorsApplied = int64(pt.Intn(1 << 30))
		cost.TestTimeSec = pt.Float64Range(0, 1e6)
		cost.Profiles = int64(pt.Intn(1 << 20))
		for i := range cost.PerParam {
			cost.PerParam[i] = int64(pt.Intn(1 << 20))
		}
		cost.Functional = int64(pt.Intn(1 << 20))

		raw := encodeDieRecord(dr, cost)
		got, gotCost, ok := decodeDieRecord(raw)
		if !ok {
			pt.Fatalf("decode failed")
		}
		// NaN-tolerant comparison via bit patterns.
		if got.DieID != dr.DieID || got.Corner != dr.Corner || got.WorstTest != dr.WorstTest ||
			got.Class != dr.Class || got.FunctionalFails != dr.FunctionalFails ||
			math.Float64bits(got.WorstTrip) != math.Float64bits(dr.WorstTrip) ||
			math.Float64bits(got.WCR) != math.Float64bits(dr.WCR) {
			pt.Fatalf("result round-trip: %+v != %+v", got, dr)
		}
		if gotCost != cost {
			pt.Fatalf("cost round-trip: %+v != %+v", gotCost, cost)
		}

		// Any truncation is a clean miss, never garbage.
		if len(raw) > 0 {
			cut := pt.Intn(len(raw))
			if _, _, ok := decodeDieRecord(raw[:cut]); ok {
				pt.Fatalf("truncation to %d bytes accepted", cut)
			}
		}
		// Trailing junk and version flips are misses too.
		if _, _, ok := decodeDieRecord(append(append([]byte(nil), raw...), 0)); ok {
			pt.Fatalf("trailing byte accepted")
		}
		flip := append([]byte(nil), raw...)
		flip[0] ^= 0xFF
		if _, _, ok := decodeDieRecord(flip); ok {
			pt.Fatalf("version flip accepted")
		}
	})
}
