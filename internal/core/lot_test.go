package core

import (
	"strings"
	"testing"

	"repro/internal/ate"
	"repro/internal/dut"
	"repro/internal/testgen"
	"repro/internal/wcr"
)

func lotTests(t *testing.T) []testgen.Test {
	t.Helper()
	cond := testgen.NominalConditions()
	gen := testgen.NewRandomGenerator(91, dut.DefaultGeometry().Words(), testgen.DefaultConditionLimits())
	gen.FixedConditions = &cond
	tests := gen.Batch(4)
	march, err := testgen.MarchTest(testgen.MarchCMinus(), 0, 50, 0, cond)
	if err != nil {
		t.Fatal(err)
	}
	return append(tests, march)
}

// screenLot screens a die slice with per-die results retained — the shape
// every lot test below asserts on.
func screenLot(param ate.Parameter, tests []testgen.Test, dies []*dut.Die, geom dut.Geometry, seed int64, workers int) (*LotReport, error) {
	return ScreenLotStream(param, tests, dut.LotSlice(dies), geom, seed, LotOptions{Workers: workers, RetainDies: true})
}

func TestScreenLotValidation(t *testing.T) {
	dies := dut.NewDieLot(1, 3)
	if _, err := screenLot(ate.TDQ, nil, dies, dut.DefaultGeometry(), 1, 1); err == nil {
		t.Error("empty test set accepted")
	}
	if _, err := screenLot(ate.TDQ, lotTests(t), nil, dut.DefaultGeometry(), 1, 1); err == nil {
		t.Error("empty lot accepted")
	}
}

func TestScreenLotBasics(t *testing.T) {
	dies := dut.NewDieLot(7, 12)
	rep, err := screenLot(ate.TDQ, lotTests(t), dies, dut.DefaultGeometry(), 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Dies) != 12 {
		t.Fatalf("screened %d dies", len(rep.Dies))
	}
	total := 0
	for _, n := range rep.ClassCounts {
		total += n
	}
	if total != 12 {
		t.Errorf("class counts sum %d", total)
	}
	if rep.SpreadLot <= 0 {
		t.Error("no lot spread; process variation not visible")
	}
	if rep.Measurements <= 0 {
		t.Error("no measurement accounting")
	}
	for _, d := range rep.Dies {
		if d.WorstTest == "" {
			t.Errorf("die %d missing worst test", d.DieID)
		}
		if d.Class != wcr.Classify(d.WCR) {
			t.Errorf("die %d class inconsistent", d.DieID)
		}
	}
}

func TestScreenLotCornerOrdering(t *testing.T) {
	// Explicit corner dies: slow silicon must be the worst for T_DQ.
	dies := []*dut.Die{
		dut.NewDie(0, dut.CornerFast),
		dut.NewDie(1, dut.CornerTypical),
		dut.NewDie(2, dut.CornerSlow),
	}
	rep, err := screenLot(ate.TDQ, lotTests(t), dies, dut.DefaultGeometry(), 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	ff := rep.PerCornerWorst[dut.CornerFast]
	tt := rep.PerCornerWorst[dut.CornerTypical]
	ss := rep.PerCornerWorst[dut.CornerSlow]
	if !(ff > tt && tt > ss) {
		t.Errorf("corner worst windows not ordered FF > TT > SS: %.2f, %.2f, %.2f", ff, tt, ss)
	}
	if rep.WorstDie.Corner != dut.CornerSlow {
		t.Errorf("worst die corner %s, want SS", rep.WorstDie.Corner)
	}
}

func TestScreenLotDeterministic(t *testing.T) {
	dies := dut.NewDieLot(13, 5)
	a, err := screenLot(ate.TDQ, lotTests(t), dies, dut.DefaultGeometry(), 13, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := screenLot(ate.TDQ, lotTests(t), dies, dut.DefaultGeometry(), 13, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Dies {
		if a.Dies[i].WorstTrip != b.Dies[i].WorstTrip {
			t.Fatalf("lot screen not deterministic at die %d", i)
		}
	}
}

func TestScreenLotDetectsFunctionalFailures(t *testing.T) {
	// A die with an aggressive weak cell must register functional fails
	// under high-activity tests.
	weak := dut.NewDie(0, dut.CornerTypical, dut.WithWeakCell(1, 1.82))
	healthy := dut.NewDie(1, dut.CornerTypical)

	// High-activity test touching the weak address.
	words := dut.DefaultGeometry().Words()
	seq := make(testgen.Sequence, 0, 600)
	for i := 0; i < 150; i++ {
		base := uint32(0)
		if i%2 == 1 {
			base = words - 2
		}
		seq = append(seq,
			testgen.Vector{Op: testgen.OpWrite, Addr: base, Data: 0},
			testgen.Vector{Op: testgen.OpWrite, Addr: base + 1, Data: 0xFFFFFFFF},
		)
	}
	seq = append(seq, testgen.Vector{Op: testgen.OpRead, Addr: 1})
	hot := testgen.Test{Name: "HOT", Seq: seq, Cond: testgen.NominalConditions()}

	rep, err := screenLot(ate.TDQ, []testgen.Test{hot}, []*dut.Die{weak, healthy}, dut.DefaultGeometry(), 17, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dies[0].FunctionalFails == 0 {
		t.Error("weak die shows no functional failures under the hot test")
	}
	if rep.Dies[1].FunctionalFails != 0 {
		t.Error("healthy die shows functional failures")
	}
}

func TestLotReportFormat(t *testing.T) {
	dies := dut.NewDieLot(19, 4)
	rep, err := screenLot(ate.TDQ, lotTests(t)[:2], dies, dut.DefaultGeometry(), 19, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Format()
	for _, want := range []string{"Lot screen", "worst die", "classes", "lot spread"} {
		if !strings.Contains(s, want) {
			t.Errorf("lot report missing %q", want)
		}
	}
}

func TestScreenLotMultiSiteMatchesSerial(t *testing.T) {
	dies := dut.NewDieLot(23, 9)
	tests := lotTests(t)
	serial, err := screenLot(ate.TDQ, tests, dies, dut.DefaultGeometry(), 23, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := screenLot(ate.TDQ, tests, dies, dut.DefaultGeometry(), 23, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Dies) != len(parallel.Dies) {
		t.Fatalf("die counts differ: %d vs %d", len(serial.Dies), len(parallel.Dies))
	}
	for i := range serial.Dies {
		if serial.Dies[i] != parallel.Dies[i] {
			t.Fatalf("die %d differs: serial %+v, parallel %+v", i, serial.Dies[i], parallel.Dies[i])
		}
	}
	if serial.Measurements != parallel.Measurements {
		t.Errorf("cost differs: %d vs %d", serial.Measurements, parallel.Measurements)
	}
	if serial.WorstDie != parallel.WorstDie {
		t.Error("worst die differs")
	}
}

func TestScreenLotWorkerClamping(t *testing.T) {
	dies := dut.NewDieLot(29, 3)
	// More workers than dies, and zero workers, must both work.
	if _, err := screenLot(ate.TDQ, lotTests(t)[:2], dies, dut.DefaultGeometry(), 29, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := screenLot(ate.TDQ, lotTests(t)[:2], dies, dut.DefaultGeometry(), 29, 0); err != nil {
		t.Fatal(err)
	}
}
