package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ate"
)

// digest hashes a sequence of values into a hex SHA-256. Byte slices
// (trace files) are hashed raw; everything else through its %+v form, in
// which floats print in their shortest round-trip representation and maps
// in sorted key order, so equal values always give equal digests.
func digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		if b, ok := p.([]byte); ok {
			h.Write(b)
		} else {
			fmt.Fprintf(h, "%+v", p)
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// optimizeDigest pins everything a fig. 5 run reports: the trace bytes,
// the GA trajectory, the measurement and memo-cache accounting, the ranked
// worst-case database and the tester's total cost.
func optimizeDigest(trace []byte, res *OptimizationResult, cost ate.Stats) string {
	ga := res.GA
	parts := []any{trace, ga.Best.Fitness, ga.BestHistory, ga.Generations, ga.Evaluations,
		ga.Restarts, ga.TargetHit, res.Measurements, res.CacheHits, res.CacheMisses, cost}
	for _, e := range res.Database.Entries {
		parts = append(parts, e.Test.Name, e.Test.Fingerprint(), e.Value, e.WCR, e.Class)
	}
	return digest(parts...)
}

// table1Digest pins a Table 1 comparison and its trace bytes.
func table1Digest(trace []byte, tab *Table1) string {
	return digest(trace, tab.Parameter, tab.VddV, tab.Rows, tab.Stats, tab.CacheHits, tab.CacheMisses)
}

// replicaRowStats is one Table 1 row summarized across replicas. Its
// fields, in this order, are what replicationDigest hashes.
type replicaRowStats struct {
	TestName        string
	MeanWCR, MinWCR float64
	MaxWCR          float64
	StdWCR          float64
	MeanValue       float64
}

// replicationDigest pins Table 1 replicas as one aggregate: the replica
// count, per-row WCR statistics (mean, min, max, σ, mean value), how often
// the paper's ordering WCR(March) < WCR(Random) < WCR(NNGA) held, how often
// the NN+GA row landed in the weakness band (0.8, 1.0], and the rendered
// summary text.
func replicationDigest(tabs []*Table1) string {
	var ordering, weakness int
	var perRow [][]Table1Row
	for _, tab := range tabs {
		if perRow == nil {
			perRow = make([][]Table1Row, len(tab.Rows))
		}
		for ri, row := range tab.Rows {
			perRow[ri] = append(perRow[ri], row)
		}
		if len(tab.Rows) == 3 {
			march, random, nnga := tab.Rows[0].WCR, tab.Rows[1].WCR, tab.Rows[2].WCR
			if march < random && random < nnga {
				ordering++
			}
			if nnga > 0.8 && nnga <= 1.0 {
				weakness++
			}
		}
	}
	var stats []replicaRowStats
	for _, rows := range perRow {
		rs := replicaRowStats{TestName: rows[0].TestName, MinWCR: math.Inf(1), MaxWCR: math.Inf(-1)}
		var sum, sumVal float64
		for _, row := range rows {
			sum += row.WCR
			sumVal += row.Value
			rs.MinWCR = math.Min(rs.MinWCR, row.WCR)
			rs.MaxWCR = math.Max(rs.MaxWCR, row.WCR)
		}
		rs.MeanWCR = sum / float64(len(rows))
		rs.MeanValue = sumVal / float64(len(rows))
		var ss float64
		for _, row := range rows {
			d := row.WCR - rs.MeanWCR
			ss += d * d
		}
		rs.StdWCR = math.Sqrt(ss / float64(len(rows)))
		stats = append(stats, rs)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 replicated %d× (independent seeds)\n", len(tabs))
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s %10s\n", "row", "meanWCR", "min", "max", "σ", "mean value")
	for _, row := range stats {
		fmt.Fprintf(&b, "%-14s %8.3f %8.3f %8.3f %8.3f %10.2f\n",
			row.TestName, row.MeanWCR, row.MinWCR, row.MaxWCR, row.StdWCR, row.MeanValue)
	}
	fmt.Fprintf(&b, "ordering March < Random < NNGA held in %d/%d replicas\n", ordering, len(tabs))
	fmt.Fprintf(&b, "NNGA row in the weakness band in %d/%d replicas\n", weakness, len(tabs))
	return digest(len(tabs), stats, ordering, weakness, b.String())
}

// lotDigest pins a whole lot report.
func lotDigest(rep *LotReport) string {
	return digest(*rep)
}

// proposeSeedsDigest pins a ranked candidate list: names plus the exact
// severity and confidence bits.
func proposeSeedsDigest(cands []Candidate) string {
	parts := make([]any, 0, 3*len(cands))
	for _, c := range cands {
		parts = append(parts, c.Test.Name, math.Float64bits(c.Severity), math.Float64bits(c.Confidence))
	}
	return digest(parts...)
}

// recordedProposeSeedsDigest was recorded when ProposeSeeds still
// extracted every candidate's features serially on the coordinator:
// quickConfig(41) with the whole 300-candidate pool returned, so the digest
// covers every rank, not just the selected seeds.
const recordedProposeSeedsDigest = "60a99c98547384cb9d20615eb7574c8b6017da3cbf07cd8b5ee41890ee2872fd"

func TestProposeSeedsDigest(t *testing.T) {
	for _, parallelism := range equivalenceFleetSizes {
		cfg := quickConfig(41)
		cfg.SeedCount = cfg.CandidatePool
		cfg.Parallelism = parallelism
		char, err := NewCharacterizer(cfg, newTester(t, 41))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := char.Learn(); err != nil {
			t.Fatal(err)
		}
		cands, err := char.ProposeSeeds()
		char.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) != cfg.CandidatePool {
			t.Fatalf("parallelism=%d: %d candidates, want %d", parallelism, len(cands), cfg.CandidatePool)
		}
		if got := proposeSeedsDigest(cands); got != recordedProposeSeedsDigest {
			t.Errorf("parallelism=%d: ProposeSeeds digest %s, recorded %s", parallelism, got, recordedProposeSeedsDigest)
		}
	}
}
