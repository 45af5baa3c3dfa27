package dut

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/testgen"
)

func testMemory(t *testing.T) *Memory {
	t.Helper()
	m, err := NewMemory(DefaultGeometry(), NewDie(0, CornerTypical))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGeometryWordsAndBits(t *testing.T) {
	g := DefaultGeometry()
	if g.Words() != 4096 {
		t.Errorf("default geometry words = %d, want 4096", g.Words())
	}
	if g.AddrBits() != 12 {
		t.Errorf("default geometry addr bits = %d, want 12", g.AddrBits())
	}
}

func TestGeometryDecode(t *testing.T) {
	g := Geometry{Banks: 4, Rows: 64, Cols: 16}
	bank, row, col := g.Decode(0)
	if bank != 0 || row != 0 || col != 0 {
		t.Errorf("Decode(0) = %d,%d,%d", bank, row, col)
	}
	// Address 16 is the start of row 1 (cols are lowest bits).
	bank, row, col = g.Decode(16)
	if bank != 0 || row != 1 || col != 0 {
		t.Errorf("Decode(16) = %d,%d,%d, want bank 0 row 1 col 0", bank, row, col)
	}
	// One full bank is 64*16 = 1024 words.
	bank, row, col = g.Decode(1024)
	if bank != 1 || row != 0 || col != 0 {
		t.Errorf("Decode(1024) = %d,%d,%d, want bank 1", bank, row, col)
	}
}

func TestGeometryDecodeProperty(t *testing.T) {
	g := DefaultGeometry()
	f := func(a uint32) bool {
		addr := a % g.Words()
		bank, row, col := g.Decode(addr)
		recon := uint32(bank*g.Rows*g.Cols + row*g.Cols + col)
		return recon == addr &&
			bank >= 0 && bank < g.Banks &&
			row >= 0 && row < g.Rows &&
			col >= 0 && col < g.Cols
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := (Geometry{Banks: 0, Rows: 1, Cols: 1}).Validate(); err == nil {
		t.Error("zero-bank geometry accepted")
	}
	if err := DefaultGeometry().Validate(); err != nil {
		t.Errorf("default geometry rejected: %v", err)
	}
}

func TestNewMemoryErrors(t *testing.T) {
	if _, err := NewMemory(Geometry{}, NewDie(0, CornerTypical)); err == nil {
		t.Error("invalid geometry accepted")
	}
	if _, err := NewMemory(DefaultGeometry(), nil); err == nil {
		t.Error("nil die accepted")
	}
}

func TestMemoryReadAfterWrite(t *testing.T) {
	m := testMemory(t)
	seq := testgen.Sequence{
		{Op: testgen.OpWrite, Addr: 7, Data: 0xCAFEBABE},
		{Op: testgen.OpRead, Addr: 7},
	}
	_, fr := m.Execute(seq, 1.8)
	if fr.Failed() {
		t.Error("clean read-after-write reported functional failure")
	}
	if got := m.Peek(7); got != 0xCAFEBABE {
		t.Errorf("stored word = %08X", got)
	}
}

func TestMemoryResetClears(t *testing.T) {
	m := testMemory(t)
	m.Poke(5, 123)
	m.Reset()
	if m.Peek(5) != 0 {
		t.Error("Reset did not clear contents")
	}
}

func TestActivityEmptySequence(t *testing.T) {
	m := testMemory(t)
	act, fr := m.Execute(nil, 1.8)
	if act.Cycles != 0 {
		t.Errorf("empty sequence cycles = %d", act.Cycles)
	}
	if fr.Failed() {
		t.Error("empty sequence failed")
	}
}

func TestActivityRangesProperty(t *testing.T) {
	m := testMemory(t)
	gen := testgen.NewRandomGenerator(31, m.Geometry().Words(), testgen.DefaultConditionLimits())
	for i := 0; i < 50; i++ {
		m.Reset()
		act, _ := m.Execute(gen.Next().Seq, 1.8)
		check := func(name string, v float64) {
			if v < 0 || v > 1 {
				t.Fatalf("test %d: %s = %g outside [0,1]", i, name, v)
			}
		}
		check("ATDMean", act.ATDMean)
		check("ATDPeak", act.ATDPeak)
		check("ToggleMean", act.ToggleMean)
		check("TogglePeak", act.TogglePeak)
		check("SSNMean", act.SSNMean)
		check("SSNPeak", act.SSNPeak)
		check("SSNSustained", act.SSNSustained)
		check("CouplingScore", act.CouplingScore)
		check("ReadRatio", act.ReadRatio)
		check("RowHammer", act.RowHammer)
		if act.ATDPeak < act.ATDMean-1e-9 {
			t.Fatalf("test %d: ATD peak %g below mean %g", i, act.ATDPeak, act.ATDMean)
		}
		if act.SSNPeak < act.SSNSustained-1e-9 {
			t.Fatalf("test %d: 8-cycle SSN peak %g below 64-cycle sustained %g", i, act.SSNPeak, act.SSNSustained)
		}
	}
}

func TestIdleSequenceHasNoActivity(t *testing.T) {
	m := testMemory(t)
	seq := make(testgen.Sequence, 100) // all NOPs
	act, _ := m.Execute(seq, 1.8)
	if act.ATDMean != 0 || act.ToggleMean != 0 || act.SSNPeak != 0 {
		t.Errorf("idle bus has activity: %+v", act)
	}
}

func TestPingPongMaximizesATD(t *testing.T) {
	m := testMemory(t)
	words := m.Geometry().Words()
	seq := make(testgen.Sequence, 200)
	for i := range seq {
		addr := uint32(0)
		if i%2 == 1 {
			addr = words - 1 // all address bits flip
		}
		seq[i] = testgen.Vector{Op: testgen.OpRead, Addr: addr}
	}
	act, _ := m.Execute(seq, 1.8)
	if act.ATDMean < 0.99 {
		t.Errorf("complementary ping-pong ATD mean = %g, want ≈1", act.ATDMean)
	}
}

func TestCouplingScoreDetectsAdjacentComplementaryWrites(t *testing.T) {
	m := testMemory(t)
	seq := make(testgen.Sequence, 200)
	for i := range seq {
		d := uint32(0)
		if i%2 == 1 {
			d = 0xFFFFFFFF
		}
		seq[i] = testgen.Vector{Op: testgen.OpWrite, Addr: uint32(i % 2), Data: d}
	}
	act, _ := m.Execute(seq, 1.8)
	if act.CouplingScore < 0.99 {
		t.Errorf("adjacent complementary writes coupling = %g, want ≈1", act.CouplingScore)
	}

	// The same data written to the same single address must not couple.
	for i := range seq {
		seq[i].Addr = 0
	}
	m.Reset()
	act, _ = m.Execute(seq, 1.8)
	if act.CouplingScore != 0 {
		t.Errorf("same-address writes coupling = %g, want 0", act.CouplingScore)
	}
}

func TestBankConflictDetection(t *testing.T) {
	m := testMemory(t)
	g := m.Geometry()
	// Alternate between row 0 and row 1 of bank 0: every access conflicts.
	seq := make(testgen.Sequence, 100)
	for i := range seq {
		addr := uint32(0)
		if i%2 == 1 {
			addr = uint32(g.Cols) // row 1, same bank
		}
		seq[i] = testgen.Vector{Op: testgen.OpRead, Addr: addr}
	}
	act, _ := m.Execute(seq, 1.8)
	if act.BankConflictRate < 0.9 {
		t.Errorf("same-bank row ping-pong conflict rate = %g, want ≈1", act.BankConflictRate)
	}

	// Alternate between two banks, same row: no conflicts.
	for i := range seq {
		addr := uint32(0)
		if i%2 == 1 {
			addr = uint32(g.Rows * g.Cols) // bank 1, row 0
		}
		seq[i].Addr = addr
	}
	m.Reset()
	act, _ = m.Execute(seq, 1.8)
	if act.BankConflictRate != 0 {
		t.Errorf("alternating-bank conflict rate = %g, want 0", act.BankConflictRate)
	}
}

func TestWeakCellCorruptsOnlyBelowThreshold(t *testing.T) {
	die := NewDie(0, CornerTypical, WithWeakCell(9, 1.6))
	m, err := NewMemory(DefaultGeometry(), die)
	if err != nil {
		t.Fatal(err)
	}
	seq := testgen.Sequence{
		{Op: testgen.OpWrite, Addr: 9, Data: 0x12345678},
		{Op: testgen.OpRead, Addr: 9},
	}
	_, fr := m.Execute(seq, 1.8)
	if fr.Failed() {
		t.Error("weak cell corrupted above its threshold")
	}
	m.Reset()
	_, fr = m.Execute(seq, 1.5)
	if !fr.Failed() {
		t.Fatal("weak cell did not corrupt below its threshold")
	}
	if fr.Mismatches != 1 || fr.FirstMismatch != 1 {
		t.Errorf("mismatch accounting: %+v", fr)
	}
	if len(fr.FailingAddrs) != 1 || fr.FailingAddrs[0] != 9 {
		t.Errorf("failing addrs = %v", fr.FailingAddrs)
	}
}

func TestAddressesWrapModuloWords(t *testing.T) {
	m := testMemory(t)
	words := m.Geometry().Words()
	seq := testgen.Sequence{
		{Op: testgen.OpWrite, Addr: words + 3, Data: 0xAB},
		{Op: testgen.OpRead, Addr: 3},
	}
	_, fr := m.Execute(seq, 1.8)
	if fr.Failed() {
		t.Error("wrapped write failed")
	}
	if m.Peek(3) != 0xAB {
		t.Error("address did not wrap modulo array size")
	}
}

// randomSeq draws a random vector sequence biased toward reads of low
// addresses, so weak cells actually fire and dedup paths are exercised.
func randomSeq(rng *rand.Rand, words uint32, n int) testgen.Sequence {
	seq := make(testgen.Sequence, n)
	for i := range seq {
		var op testgen.OpKind
		switch rng.Intn(10) {
		case 0:
			op = testgen.OpNop
		case 1, 2, 3, 4:
			op = testgen.OpWrite
		default:
			op = testgen.OpRead
		}
		addr := uint32(rng.Intn(int(words) + 7)) // a few wrap past the array
		if rng.Intn(3) == 0 {
			addr = uint32(rng.Intn(16)) // hammer the weak-cell region
		}
		seq[i] = testgen.Vector{Op: op, Addr: addr, Data: rng.Uint32()}
	}
	return seq
}

// referenceExecuteObserved is the map-based ExecuteObserved the dense
// execution scratch replaced, kept verbatim as a test-only reference: two
// fresh maps per call count row activations and dedupe failing addresses.
func referenceExecuteObserved(m *Memory, seq testgen.Sequence, vddEff float64, observe func(CycleRecord)) (Activity, FunctionalResult) {
	var act Activity
	fr := FunctionalResult{FirstMismatch: -1}
	if len(seq) == 0 {
		return act, fr
	}

	addrBits := float64(m.geom.AddrBits())
	words := m.geom.Words()

	var (
		prevAddr      uint32
		prevBus       uint32 // last value seen on the data bus (read or write)
		prevWrote     uint32
		prevWroteAddr uint32
		havePrev      bool
		haveWrite     bool

		atdSum, togSum, ssnSum    float64
		atdPeak, togPeak, ssnPeak float64
		conflicts, reads          int
		coupling                  float64
		rowHits                   map[int]int
		winATD, winTog, winSSN    [activityWindow]float64
		sumATDw, sumTogw, sumSSNw float64
		wIdx                      int
		winSus                    [sustainWindow]float64
		sumSus                    float64
		susIdx                    int
		ssnSustained              float64
		failSeen                  map[uint32]bool
	)
	rowHits = make(map[int]int)
	failSeen = make(map[uint32]bool)

	for i, v := range seq {
		addr := v.Addr % words
		bank, row, col := m.geom.Decode(addr)

		atd := 0.0
		if havePrev && v.Op != testgen.OpNop {
			atd = float64(bits.OnesCount32(prevAddr^addr)) / addrBits
		}

		var bus uint32
		tog := 0.0
		corrupted := false
		switch v.Op {
		case testgen.OpWrite:
			bus = v.Data
			m.words[m.physical(addr)] = v.Data
			if haveWrite {
				// Bitline coupling: adjacent-column write with near-complementary data.
				flips := bits.OnesCount32(prevWrote ^ v.Data)
				dAddr := int64(addr) - int64(prevWroteAddr)
				if dAddr < 0 {
					dAddr = -dAddr
				}
				if flips >= 24 && dAddr >= 1 && dAddr <= 2 {
					coupling++
				}
			}
			prevWrote = v.Data
			prevWroteAddr = addr
			haveWrite = true
		case testgen.OpRead:
			reads++
			fr.ReadCount++
			phys := m.physical(addr)
			data := m.words[phys]
			if th, ok := m.die.WeakCellThreshold(phys); ok && vddEff < th {
				data ^= 1 << (addr % 32) // single-bit corruption
				corrupted = true
				fr.Mismatches++
				if fr.FirstMismatch < 0 {
					fr.FirstMismatch = i
				}
				if !failSeen[addr] {
					failSeen[addr] = true
					fr.FailingAddrs = append(fr.FailingAddrs, addr)
				}
			}
			bus = data
		default: // OpNop: bus holds
			bus = prevBus
		}
		if havePrev && v.Op != testgen.OpNop {
			tog = float64(bits.OnesCount32(prevBus^bus)) / 32.0
		}

		ssn := atd * tog

		atdSum += atd
		togSum += tog
		ssnSum += ssn

		// Sliding-window peaks.
		sumATDw += atd - winATD[wIdx]
		winATD[wIdx] = atd
		sumTogw += tog - winTog[wIdx]
		winTog[wIdx] = tog
		sumSSNw += ssn - winSSN[wIdx]
		winSSN[wIdx] = ssn
		wIdx = (wIdx + 1) % activityWindow
		wlen := float64(activityWindow)
		if i+1 < activityWindow {
			wlen = float64(i + 1)
		}
		if a := sumATDw / wlen; a > atdPeak {
			atdPeak = a
		}
		if t := sumTogw / wlen; t > togPeak {
			togPeak = t
		}
		if s := sumSSNw / wlen; s > ssnPeak {
			ssnPeak = s
		}
		sumSus += ssn - winSus[susIdx]
		winSus[susIdx] = ssn
		susIdx = (susIdx + 1) % sustainWindow
		slen := float64(sustainWindow)
		if i+1 < sustainWindow {
			slen = float64(i + 1)
		}
		if i+1 >= sustainWindow/2 { // ignore the warm-up transient
			if s := sumSus / slen; s > ssnSustained {
				ssnSustained = s
			}
		}

		if observe != nil {
			observe(CycleRecord{
				Cycle: i, Op: v.Op, Addr: addr,
				Bank: bank, Row: row, Col: col,
				Bus: bus, ATD: atd, Toggle: tog, SSN: ssn,
				Corrupted: corrupted,
			})
		}

		// Bank conflict: back-to-back access to the same bank, different row.
		if v.Op != testgen.OpNop {
			if last := m.lastRowInBank[bank]; last >= 0 && last != row {
				conflicts++
			}
			m.lastRowInBank[bank] = row
			rowHits[bank*m.geom.Rows+row]++
		}
		_ = col

		prevAddr = addr
		prevBus = bus
		havePrev = true
	}

	n := float64(len(seq))
	act.Cycles = len(seq)
	act.ATDMean = atdSum / n
	act.ATDPeak = clamp01(atdPeak)
	act.ToggleMean = togSum / n
	act.TogglePeak = clamp01(togPeak)
	act.SSNMean = ssnSum / n
	act.SSNPeak = clamp01(ssnPeak)
	act.SSNSustained = clamp01(ssnSustained)
	act.BankConflictRate = float64(conflicts) / n
	act.CouplingScore = clamp01(coupling / n * 4)
	act.ReadRatio = float64(reads) / n
	maxRow := 0
	for _, c := range rowHits {
		if c > maxRow {
			maxRow = c
		}
	}
	act.RowHammer = clamp01(float64(maxRow) / n)
	return act, fr
}

// TestExecScratchEquivalenceProperty pins the dense-scratch execution path
// to the map-based reference it replaced: same Activity, same functional
// result, same failing-address order and the same per-cycle observer
// records — across random sequences with weak cells and repaired rows, one
// memory reused run after run, on the default and a non-power-of-two
// geometry.
func TestExecScratchEquivalenceProperty(t *testing.T) {
	geoms := []Geometry{DefaultGeometry(), {Banks: 3, Rows: 5, Cols: 7}}
	for _, geom := range geoms {
		words := geom.Words()
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var opts []DieOption
			for i := 0; i < 1+rng.Intn(5); i++ {
				opts = append(opts, WithWeakCell(uint32(rng.Intn(16)), 1.5+rng.Float64()*0.5))
			}
			die := NewDie(int(seed), CornerTypical, opts...)
			got, err := NewMemory(geom, die)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewMemory(geom, die)
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 8; run++ {
				if rng.Intn(4) == 0 {
					addr := uint32(rng.Intn(int(words)))
					errG, errR := got.RepairRow(addr), ref.RepairRow(addr)
					if (errG == nil) != (errR == nil) {
						t.Fatalf("%+v seed %d: RepairRow(%d) = %v, reference %v", geom, seed, addr, errG, errR)
					}
				}
				seq := randomSeq(rng, words, 1+rng.Intn(300))
				vdd := 1.4 + rng.Float64()*0.6
				var recG, recR []CycleRecord
				var obsG, obsR func(CycleRecord)
				if rng.Intn(2) == 0 {
					obsG = func(r CycleRecord) { recG = append(recG, r) }
					obsR = func(r CycleRecord) { recR = append(recR, r) }
				}
				got.Reset()
				ref.Reset()
				actG, frG := got.ExecuteObserved(seq, vdd, obsG)
				actR, frR := referenceExecuteObserved(ref, seq, vdd, obsR)
				if actG != actR {
					t.Fatalf("%+v seed %d run %d: activity diverged\nscratch   %+v\nreference %+v", geom, seed, run, actG, actR)
				}
				if frG.ReadCount != frR.ReadCount || frG.Mismatches != frR.Mismatches ||
					frG.FirstMismatch != frR.FirstMismatch ||
					!reflect.DeepEqual(frG.FailingAddrs, frR.FailingAddrs) {
					t.Fatalf("%+v seed %d run %d: functional result diverged\nscratch   %+v\nreference %+v", geom, seed, run, frG, frR)
				}
				if !reflect.DeepEqual(recG, recR) {
					t.Fatalf("%+v seed %d run %d: observer records diverged", geom, seed, run)
				}
			}
		}
	}
}

// TestExecuteSteadyStateAllocatesNothing: a memory that was never set up
// for it allocates its execution scratch on the first Execute and nothing
// after, so every tester — worker insertion or main — runs allocation-free.
func TestExecuteSteadyStateAllocatesNothing(t *testing.T) {
	m := testMemory(t)
	gen := testgen.NewRandomGenerator(3, m.Geometry().Words(), testgen.DefaultConditionLimits())
	seqs := make([]testgen.Sequence, 50)
	for i := range seqs {
		seqs[i] = gen.Next().Seq
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, seq := range seqs {
			m.Reset()
			m.Execute(seq, 1.8)
		}
	})
	if allocs != 0 {
		t.Fatalf("Execute over 50 sequences allocated %v times per pass after the first, want 0", allocs)
	}
}

// TestExecScratchEpochWrap forces the 32-bit fail-stamp epoch to wrap and
// checks dedup still works: a stale stamp from epoch N must not suppress a
// failing address in the wrapped epoch.
func TestExecScratchEpochWrap(t *testing.T) {
	die := NewDie(0, CornerTypical, WithWeakCell(5, 1.9))
	m, err := NewMemory(DefaultGeometry(), die)
	if err != nil {
		t.Fatal(err)
	}
	seq := testgen.Sequence{
		{Op: testgen.OpWrite, Addr: 5, Data: 1},
		{Op: testgen.OpRead, Addr: 5},
		{Op: testgen.OpRead, Addr: 5},
	}
	_, fr := m.Execute(seq, 1.5)
	if len(fr.FailingAddrs) != 1 {
		t.Fatalf("before wrap: failing addrs = %v", fr.FailingAddrs)
	}
	m.scratch.epoch = ^uint32(0) // next begin() wraps to 0 and must re-arm
	_, fr = m.Execute(seq, 1.5)
	if len(fr.FailingAddrs) != 1 || fr.FailingAddrs[0] != 5 {
		t.Fatalf("after wrap: failing addrs = %v", fr.FailingAddrs)
	}
	if m.scratch.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", m.scratch.epoch)
	}
}
