package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/ate"
	"repro/internal/dut"
	"repro/internal/wcr"
)

// FuzzDieRecordDecode hammers the lot die-record decoder with arbitrary
// bytes: disk-cache values reach it straight from segment files, on fleet
// workers. The contract: decodeDieRecord never panics, and any record it
// accepts re-encodes byte for byte, so a warm run can only replay exactly
// what a cold run stored.
func FuzzDieRecordDecode(f *testing.F) {
	dr := DieResult{DieID: 417, Corner: dut.CornerSlow, WorstTrip: 4.25, WorstTest: "WORST-BUILTIN",
		WCR: 0.85, Class: wcr.Weakness, FunctionalFails: 2}
	var cost ate.Stats
	cost.Measurements = 24
	cost.VectorsApplied = 9600
	cost.TestTimeSec = 0.0125
	cost.Profiles = 3
	cost.PerParam[ate.TDQ] = 24
	cost.Functional = 2
	valid := encodeDieRecord(dr, cost)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(encodeDieRecord(DieResult{WorstTrip: math.NaN(), WCR: math.Inf(-1)}, ate.Stats{}))
	f.Add([]byte{dieRecordVersion})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		dr, cost, ok := decodeDieRecord(raw)
		if !ok {
			return
		}
		if again := encodeDieRecord(dr, cost); !bytes.Equal(again, raw) {
			t.Fatalf("accepted record does not round-trip:\n in: %x\nout: %x", raw, again)
		}
	})
}
