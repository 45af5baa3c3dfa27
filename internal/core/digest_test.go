package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
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

// replicationDigest pins a replicated Table 1 report.
func replicationDigest(rep *ReplicationReport) string {
	return digest(rep.Replicas, rep.Rows, rep.OrderingHeld, rep.NNGAInWeakness, rep.Format())
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
