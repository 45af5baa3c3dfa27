package neural

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/parallel"
)

// Digests of NewEnsemble's weights and member reports for the three
// configurations below, recorded when fleet-less training still ran on the
// per-call pool (where the serial and 4-worker forms agreed).
const (
	ensembleDigest47 = "4d29e9e48f78eab82be1fbb3e90f7a209806084e5d0ba2382a064f0f6cceaa76"
	ensembleDigest53 = "9dca677d693d55e2de443ce177f72a645ee0ad021beb5cdf85c778d49c86f7e5"
	ensembleDigest61 = "42c9dd1f757bdf89db24c6fcb68267dcace763940eee5dce61abe5fd10d6c052"
)

func TestEnsembleParallelBitIdenticalToSerial(t *testing.T) {
	// Fleet-hosted training is a pure scheduling change: weights and member
	// reports at every fleet size equal NewEnsemble's.
	data := syntheticRegression(47, 160)
	cfg := DefaultTrainConfig(47)
	cfg.Epochs = 40

	serial, serialReports, err := NewEnsemble(47, 4, []int{3, 8, 1}, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ensembleDigest(t, serial, serialReports)
	if want != ensembleDigest47 {
		t.Errorf("NewEnsemble digest %s, recorded %s", want, ensembleDigest47)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		f := parallel.NewFleet(workers)
		e, reports, err := NewEnsembleOn(f, 47, 4, []int{3, 8, 1}, data, cfg)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := ensembleDigest(t, e, reports); got != want {
			t.Errorf("fleet=%d weights or reports differ from NewEnsemble", workers)
		}
	}
}

func TestEnsembleParallelMatchesLegacyNewEnsemble(t *testing.T) {
	// NewEnsemble itself must still train the exact ensemble it did before
	// it ran on a one-worker fleet, and a fleet wider than the member count
	// must agree with it.
	data := syntheticRegression(53, 120)
	cfg := DefaultTrainConfig(53)
	cfg.Epochs = 30

	legacy, legacyReports, err := NewEnsemble(53, 3, []int{3, 6, 1}, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ensembleDigest(t, legacy, legacyReports); got != ensembleDigest53 {
		t.Errorf("NewEnsemble digest %s, recorded %s", got, ensembleDigest53)
	}
	f := parallel.NewFleet(8)
	defer f.Close()
	par, parReports, err := NewEnsembleOn(f, 53, 3, []int{3, 6, 1}, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ensembleDigest(t, par, parReports); got != ensembleDigest53 {
		t.Error("8-worker fleet ensemble differs from NewEnsemble")
	}
}

func TestEnsembleOnMatchesParallel(t *testing.T) {
	// A fleet reused across two trainings reproduces the ensemble the
	// 4-worker pool recorded, each time and at every fleet size.
	data := syntheticRegression(61, 140)
	cfg := DefaultTrainConfig(61)
	cfg.Epochs = 30

	for _, workers := range []int{1, 2, 8} {
		f := parallel.NewFleet(workers)
		for round := 0; round < 2; round++ { // same fleet, two trainings
			e, reports, err := NewEnsembleOn(f, 61, 4, []int{3, 6, 1}, data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := ensembleDigest(t, e, reports); got != ensembleDigest61 {
				t.Errorf("fleet=%d round %d: digest %s, recorded %s", workers, round, got, ensembleDigest61)
			}
		}
		f.Close()
	}
}

// ensembleDigest hashes a trained ensemble's serialized weights together
// with every member's training report.
func ensembleDigest(t *testing.T, e *Ensemble, reports []TrainReport) string {
	t.Helper()
	var b bytes.Buffer
	if err := e.Save(&b, nil); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(b.Bytes())
	fmt.Fprintf(h, "\x00%+v", reports)
	return hex.EncodeToString(h.Sum(nil))
}
