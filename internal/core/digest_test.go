package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

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
