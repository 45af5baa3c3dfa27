package shmoo

import (
	"testing"

	"repro/internal/ate"
	"repro/internal/dut"
	"repro/internal/parallel"
	"repro/internal/testgen"
)

// TestFleetSweepAfterRepairMatchesMainTester: fleet workers measure forks
// of the main tester, so after a row repair they must measure the repaired
// silicon too. A weak cell that corrupts every read shifts the T_DQ window
// slightly; a strobe axis straddling the unrepaired and repaired windows
// makes that shift visible, and the fleet overlay at fleet sizes 1 and 2
// must equal the serial overlay on the repaired main tester.
func TestFleetSweepAfterRepairMatchesMainTester(t *testing.T) {
	const addr, vdd = 37, 1.5
	die := dut.NewDie(0, dut.CornerTypical, dut.WithWeakCell(addr, 2.5))
	dev, err := dut.NewDevice(dut.DefaultGeometry(), die)
	if err != nil {
		t.Fatal(err)
	}
	tester := ate.New(dev, 5)
	tester.NoiseFraction = 0
	seq := make(testgen.Sequence, 0, 400)
	for i := 0; i < 200; i++ {
		seq = append(seq,
			testgen.Vector{Op: testgen.OpWrite, Addr: addr, Data: 0xFFFFFFFF * uint32(i%2)},
			testgen.Vector{Op: testgen.OpRead, Addr: addr})
	}
	tt := testgen.Test{Name: "weak-hammer", Seq: seq, Cond: testgen.NominalConditions()}

	before, err := dev.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.RepairRow(addr); err != nil {
		t.Fatal(err)
	}
	after, err := dev.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	wa, wb := before.TDQWindowNSAt(vdd), after.TDQWindowNSAt(vdd)
	if !before.Func.Failed() || after.Func.Failed() || wa >= wb {
		t.Fatalf("premise: unrepaired window %v (failed %v), repaired %v (failed %v)",
			wa, before.Func.Failed(), wb, after.Func.Failed())
	}
	x := Axis{Label: "T_DQ (ns)", Min: (wa + wb) / 2, Max: wb + 1, Steps: 2}
	y := Axis{Label: "VDD (V)", Min: vdd, Max: vdd + 0.1, Steps: 2}
	tests := []testgen.Test{tt, tt}

	serial, err := NewPlot(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tests {
		if err := serial.AddTest(tester, tt); err != nil {
			t.Fatal(err)
		}
	}
	if serial.PassFraction(0, 0) != 1 {
		t.Fatalf("repaired main tester fails the strobe between the two windows:\n%s", serial.Render())
	}
	for _, workers := range []int{1, 2} {
		par, err := NewPlot(x, y)
		if err != nil {
			t.Fatal(err)
		}
		f := parallel.NewFleet(workers)
		err = par.AddTestsOn(f, tester, tests, 11)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := par.Render(), serial.Render(); got != want {
			t.Errorf("fleet size %d after repair differs from the main tester:\n%s\nvs\n%s", workers, got, want)
		}
	}
}
