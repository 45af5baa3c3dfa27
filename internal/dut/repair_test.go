package dut

import (
	"reflect"
	"testing"

	"repro/internal/testgen"
)

func weakDevice(t *testing.T, addr uint32, threshold float64) *Device {
	t.Helper()
	die := NewDie(0, CornerTypical, WithWeakCell(addr, threshold))
	dev, err := NewDevice(DefaultGeometry(), die)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func weakReadTest(addr uint32) testgen.Test {
	return testgen.Test{
		Name: "weakread",
		Seq: testgen.Sequence{
			{Op: testgen.OpWrite, Addr: addr, Data: 0xDEADBEEF},
			{Op: testgen.OpRead, Addr: addr},
		},
		Cond: testgen.NominalConditions(),
	}
}

func TestRepairFixesWeakCell(t *testing.T) {
	const addr = 37
	dev := weakDevice(t, addr, 2.5) // corrupts at any realistic supply
	tt := weakReadTest(addr)

	p, err := dev.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Func.Failed() {
		t.Fatal("weak cell did not fail before repair")
	}

	if err := dev.RepairRow(addr); err != nil {
		t.Fatal(err)
	}
	p, err = dev.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	if p.Func.Failed() {
		t.Error("repaired row still fails")
	}
	if dev.RepairedRows() != 1 {
		t.Errorf("repaired rows = %d", dev.RepairedRows())
	}
}

func TestRepairPreservesData(t *testing.T) {
	dev := testDevice(t)
	mem := dev.mem
	const addr = 100
	if err := mem.RepairRow(addr); err != nil {
		t.Fatal(err)
	}
	mem.Poke(addr, 0xABCD)
	if got := mem.Peek(addr); got != 0xABCD {
		t.Errorf("read after write through repair = %08X", got)
	}
	// A write to the repaired row must not alias any other logical word.
	geom := mem.Geometry()
	for a := uint32(0); a < geom.Words(); a++ {
		if a == addr {
			continue
		}
		if got := mem.Peek(a); got != 0 {
			t.Fatalf("repair aliased logical address %d (= %08X)", a, got)
		}
	}
}

func TestRepairWholeRowMoves(t *testing.T) {
	dev := testDevice(t)
	geom := dev.Geometry()
	// Repairing any address of a row must remap every column of that row.
	const addr = 160 // row 10 of bank 0
	if err := dev.RepairRow(addr); err != nil {
		t.Fatal(err)
	}
	rowBase := addr - addr%uint32(geom.Cols)
	for c := uint32(0); c < uint32(geom.Cols); c++ {
		phys := dev.mem.physical(rowBase + c)
		if phys < geom.Words() {
			t.Fatalf("column %d of the repaired row still physical %d (logical region)", c, phys)
		}
	}
	// The neighbouring rows stay put.
	if phys := dev.mem.physical(rowBase - 1); phys != rowBase-1 {
		t.Error("repair moved the previous row")
	}
	if phys := dev.mem.physical(rowBase + uint32(geom.Cols)); phys != rowBase+uint32(geom.Cols) {
		t.Error("repair moved the next row")
	}
}

func TestRepairExhaustsSpares(t *testing.T) {
	dev := testDevice(t)
	geom := dev.Geometry()
	// Bank 0: repair SpareRowsPerBank distinct rows, then one more fails.
	for r := 0; r < SpareRowsPerBank; r++ {
		addr := uint32(r * geom.Cols)
		if err := dev.RepairRow(addr); err != nil {
			t.Fatalf("repair %d: %v", r, err)
		}
	}
	if got := dev.SparesRemaining(0); got != 0 {
		t.Errorf("spares remaining = %d", got)
	}
	if err := dev.RepairRow(uint32(SpareRowsPerBank * geom.Cols)); err == nil {
		t.Error("repair beyond spare budget accepted")
	}
	// Other banks are unaffected.
	bank1 := uint32(geom.Rows * geom.Cols)
	if got := dev.SparesRemaining(bank1); got != SpareRowsPerBank {
		t.Errorf("bank 1 spares = %d", got)
	}
	if err := dev.RepairRow(bank1); err != nil {
		t.Errorf("bank 1 repair failed: %v", err)
	}
}

func TestRepairSameRowTwice(t *testing.T) {
	dev := testDevice(t)
	if err := dev.RepairRow(5); err != nil {
		t.Fatal(err)
	}
	if err := dev.RepairRow(7); err == nil { // same row (cols 0..15)
		t.Error("double repair of one row accepted")
	}
}

func TestRepairSurvivesReset(t *testing.T) {
	const addr = 11
	dev := weakDevice(t, addr, 2.5)
	if err := dev.RepairRow(addr); err != nil {
		t.Fatal(err)
	}
	dev.mem.Reset()
	p, err := dev.Profile(weakReadTest(addr))
	if err != nil {
		t.Fatal(err)
	}
	if p.Func.Failed() {
		t.Error("repair lost across Reset; eFuse repair must persist")
	}
}

// TestCloneKeepsRowRepairs: repairs are permanent state of the silicon, so
// a clone of a repaired device (every forked tester insertion) must measure
// the repaired array, while Retarget to another die still clears them.
func TestCloneKeepsRowRepairs(t *testing.T) {
	const addr = 5
	dev := weakDevice(t, addr, 2.5)
	if err := dev.RepairRow(addr); err != nil {
		t.Fatal(err)
	}
	clone, err := dev.Clone()
	if err != nil {
		t.Fatal(err)
	}
	tt := weakReadTest(addr)
	want, err := dev.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := clone.Profile(tt)
	if err != nil {
		t.Fatal(err)
	}
	if want.Func.Failed() || got.Func.Failed() {
		t.Fatalf("repaired device failed = %v, clone failed = %v, want both passing", want.Func.Failed(), got.Func.Failed())
	}
	if got.Act != want.Act || !reflect.DeepEqual(got.Func, want.Func) {
		t.Fatalf("clone profile differs from original:\nclone    %+v %+v\noriginal %+v %+v", got.Act, got.Func, want.Act, want.Func)
	}
	if clone.RepairedRows() != 1 || clone.SparesRemaining(addr) != dev.SparesRemaining(addr) {
		t.Fatalf("clone repairs = %d rows, %d spares left; original %d rows, %d spares left",
			clone.RepairedRows(), clone.SparesRemaining(addr), dev.RepairedRows(), dev.SparesRemaining(addr))
	}

	// The clone's repair state is its own: repairing it leaves the original
	// alone, and retargeting clears only the clone.
	if err := clone.RepairRow(addr + 64*16); err != nil {
		t.Fatal(err)
	}
	if dev.RepairedRows() != 1 {
		t.Fatalf("repairing the clone changed the original: %d rows", dev.RepairedRows())
	}
	if err := clone.Retarget(NewDie(1, CornerTypical)); err != nil {
		t.Fatal(err)
	}
	if clone.RepairedRows() != 0 || clone.SparesRemaining(addr) != SpareRowsPerBank {
		t.Fatalf("retargeted clone kept repairs: %d rows", clone.RepairedRows())
	}
	if dev.RepairedRows() != 1 {
		t.Fatalf("retargeting the clone changed the original: %d rows", dev.RepairedRows())
	}
}
