package core

import (
	"math"
	"testing"

	"repro/internal/ate"
	"repro/internal/dut"
)

// replicaTester is replica i's independent hardware: its own typical-corner
// die and a tester seeded with the replica's flow seed.
func replicaTester(t *testing.T, i int, seed int64) *ate.ATE {
	t.Helper()
	dev, err := dut.NewDevice(dut.DefaultGeometry(), dut.NewDie(i, dut.CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	return ate.New(dev, seed)
}

// TestTable1OrderingHoldsAcrossSeeds is the statistical form of the
// headline claim: over several independent replicas (different seeds AND
// different dies) the paper's WCR ordering must hold in every one, and the
// NN+GA row must land in the weakness band in the clear majority.
func TestTable1OrderingHoldsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated full flows")
	}
	const n = 5
	var ordering, weakness int
	var wcrs [3][]float64 // March, Random, NNGA across replicas
	for i := 0; i < n; i++ {
		cfg := DefaultTable1Config(1000)
		cfg.Flow.Seed = 1000 + int64(i)*7919
		tab, err := RunTable1(cfg, replicaTester(t, i, cfg.Flow.Seed))
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		if len(tab.Rows) != 3 {
			t.Fatalf("replica %d: %d rows", i, len(tab.Rows))
		}
		march, random, nnga := tab.Rows[0].WCR, tab.Rows[1].WCR, tab.Rows[2].WCR
		if march < random && random < nnga {
			ordering++
		}
		if nnga > 0.8 && nnga <= 1.0 {
			weakness++
		}
		for r := range wcrs {
			wcrs[r] = append(wcrs[r], tab.Rows[r].WCR)
		}
	}
	if ordering != n {
		t.Errorf("ordering held in only %d/%d replicas", ordering, n)
	}
	if weakness < n-1 {
		t.Errorf("NNGA in weakness band in only %d/%d replicas", weakness, n)
	}
	march, random, nnga := mean(wcrs[0]), mean(wcrs[1]), mean(wcrs[2])
	// Mean WCRs sit in the paper's neighbourhoods.
	if march < 0.55 || march > 0.70 {
		t.Errorf("March mean WCR %.3f outside the paper's neighbourhood of 0.619", march)
	}
	if random < 0.62 || random > 0.80 {
		t.Errorf("Random mean WCR %.3f outside the paper's neighbourhood of 0.701", random)
	}
	if nnga < 0.85 || nnga > 1.02 {
		t.Errorf("NNGA mean WCR %.3f outside the paper's neighbourhood of 0.904", nnga)
	}
	// Replica-to-replica scatter is modest: the result is a property of
	// the method, not of a lucky seed.
	var ss float64
	for _, w := range wcrs[2] {
		ss += (w - nnga) * (w - nnga)
	}
	if sd := math.Sqrt(ss / n); sd > 0.08 {
		t.Errorf("NNGA WCR σ %.3f too large across replicas", sd)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
