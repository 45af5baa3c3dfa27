package dut

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/testgen"
)

func TestNewWaferLotValidation(t *testing.T) {
	if _, err := NewWaferLot(1, 0, 10); err == nil {
		t.Error("0 wafers accepted")
	}
	if _, err := NewWaferLot(1, 2, 0); err == nil {
		t.Error("0 dies per wafer accepted")
	}
}

func TestWaferLotShapeAndIDs(t *testing.T) {
	l, err := NewWaferLot(7, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 150 || l.Wafers() != 3 || l.DiesPerWafer() != 50 {
		t.Fatalf("shape: len=%d wafers=%d per=%d", l.Len(), l.Wafers(), l.DiesPerWafer())
	}
	for _, i := range []int{0, 49, 50, 149} {
		d := l.Die(i)
		if d.ID != i {
			t.Errorf("Die(%d).ID = %d", i, d.ID)
		}
		wafer, x, y := l.Position(i)
		if wafer != i/50 {
			t.Errorf("Position(%d) wafer = %d, want %d", i, wafer, i/50)
		}
		if r := math.Hypot(x, y); r > 1 {
			t.Errorf("Position(%d) radius %v off wafer", i, r)
		}
	}
}

// Random access must be deterministic and order-independent: the same index
// always yields identical silicon, also under concurrent materialization.
func TestWaferLotDeterministicRandomAccess(t *testing.T) {
	l, _ := NewWaferLot(42, 2, 80)
	want := make([]uint64, l.Len())
	for i := range want {
		want[i] = l.Die(i).Fingerprint()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := l.Len() - 1; i >= 0; i-- {
				if got := l.Die(i).Fingerprint(); got != want[i] {
					t.Errorf("goroutine %d: Die(%d) fingerprint %#x, want %#x", g, i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	// A different seed describes different silicon.
	l2, _ := NewWaferLot(43, 2, 80)
	same := 0
	for i := range want {
		if l2.Die(i).Fingerprint() == want[i] {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d of %d dies identical across seeds", same, len(want))
	}
}

func TestWaferLotCornerMixAndSpatialStructure(t *testing.T) {
	l, _ := NewWaferLot(7, 4, 400)
	counts := map[Corner]int{}
	var innerSpeed, outerSpeed float64
	var inner, outer int
	for i := 0; i < l.Len(); i++ {
		d := l.Die(i)
		counts[d.Corner]++
		_, x, y := l.Position(i)
		if x*x+y*y < 0.3 {
			innerSpeed += d.SpeedFactor()
			inner++
		} else if x*x+y*y > 0.7 {
			outerSpeed += d.SpeedFactor()
			outer++
		}
		if d.SpeedFactor() <= 0 || d.LeakageFactor() <= 0 {
			t.Fatalf("die %d: non-positive factors %+v", i, d)
		}
	}
	n := l.Len()
	for c, want := range map[Corner]float64{CornerTypical: 0.6, CornerFast: 0.2, CornerSlow: 0.2} {
		got := float64(counts[c]) / float64(n)
		if math.Abs(got-want) > 0.15 {
			t.Errorf("corner %v fraction %.3f, want ≈ %.2f", c, got, want)
		}
	}
	// Radial structure: edge dies run slower (higher speedFactor) on
	// average than center dies.
	if inner == 0 || outer == 0 {
		t.Fatal("degenerate spatial sample")
	}
	if outerSpeed/float64(outer) <= innerSpeed/float64(inner) {
		t.Errorf("no radial slowdown: center mean %.5f, edge mean %.5f",
			innerSpeed/float64(inner), outerSpeed/float64(outer))
	}
}

func TestWaferLotDefectivity(t *testing.T) {
	l, _ := NewWaferLot(7, 5, 2000)
	weak := 0
	for i := 0; i < l.Len(); i++ {
		weak += min(l.Die(i).WeakCellCount(), 1)
	}
	// Expected rate ~0.2–0.8%; require the mechanism fires but stays rare.
	if weak == 0 {
		t.Error("no weak dies in a 10k-die lot")
	}
	if frac := float64(weak) / float64(l.Len()); frac > 0.05 {
		t.Errorf("weak-die fraction %.4f implausibly high", frac)
	}
}

// refGridSide and refCellXY are the original per-die layout: size the grid
// by counting on-wafer cells, then find within-wafer die j by rescanning
// the grid in row-major order. WaferLot's per-lot cell table must agree
// with them exactly.
func refGridSide(diesPerWafer int) int {
	side := int(math.Ceil(math.Sqrt(float64(diesPerWafer) / (math.Pi / 4))))
	if side < 1 {
		side = 1
	}
	usable := func(side int) int {
		n := 0
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				if cx, cy := cellCenter(side, x, y); cx*cx+cy*cy <= waferEdge*waferEdge {
					n++
				}
			}
		}
		return n
	}
	for usable(side) < diesPerWafer {
		side++
	}
	return side
}

func refCellXY(side, j int) (float64, float64) {
	seen := 0
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			cx, cy := cellCenter(side, x, y)
			if cx*cx+cy*cy > waferEdge*waferEdge {
				continue
			}
			if seen == j {
				return cx, cy
			}
			seen++
		}
	}
	return 0, 0
}

func TestWaferCellTableMatchesGridScan(t *testing.T) {
	// The reference depends only on (side, j), and many lot sizes share a
	// side, so memoize it per side to keep the sweep fast.
	ref := map[int][]cell{}
	refAt := func(side, j int) cell {
		r := ref[side]
		for len(r) <= j {
			x, y := refCellXY(side, len(r))
			r = append(r, cell{x, y})
		}
		ref[side] = r
		return r[j]
	}
	sizes := make([]int, 0, 2010)
	for n := 1; n <= 2000; n++ {
		sizes = append(sizes, n)
	}
	// Sizes beyond 2000 whose first side estimate is too small, so the
	// sizing loop grows the grid (38, 113, 449 and others do below 2000).
	sizes = append(sizes, 3314, 3318)
	for _, n := range sizes {
		l, err := NewWaferLot(int64(n), 2, n)
		if err != nil {
			t.Fatal(err)
		}
		side := refGridSide(n)
		for j := 0; j < n; j++ {
			want := refAt(side, j)
			if x, y := l.cellXY(j); x != want.x || y != want.y {
				t.Fatalf("%d dies/wafer: cellXY(%d) = (%v, %v), reference (%v, %v)", n, j, x, y, want.x, want.y)
			}
			for wafer := 0; wafer < 2; wafer++ {
				i := wafer*n + j
				if w, x, y := l.Position(i); w != wafer || x != want.x || y != want.y {
					t.Fatalf("%d dies/wafer: Position(%d) = (%d, %v, %v), reference (%d, %v, %v)",
						n, i, w, x, y, wafer, want.x, want.y)
				}
			}
		}
	}
}

func TestWaferLotDiesUnchanged(t *testing.T) {
	// Digest of every 7th die's fingerprint and position on a 4500-die lot,
	// recorded with the grid-rescan layout the cell table replaced.
	const want = 0x70a1481246779215
	l, err := NewWaferLot(2005, 3, 1500)
	if err != nil {
		t.Fatal(err)
	}
	h := uint64(14695981039346656037)
	for i := 0; i < l.Len(); i += 7 {
		w, x, y := l.Position(i)
		for _, v := range []uint64{l.Die(i).Fingerprint(), uint64(w), math.Float64bits(x), math.Float64bits(y)} {
			h = (h ^ v) * 1099511628211
		}
	}
	if h != want {
		t.Errorf("sampled lot digest %#x, want %#x", h, uint64(want))
	}
}

func TestLotSliceAdapter(t *testing.T) {
	lot := NewDieLot(1, 5)
	var src DieSource = LotSlice(lot)
	if src.Len() != 5 {
		t.Fatalf("Len = %d", src.Len())
	}
	for i := range lot {
		if src.Die(i) != lot[i] {
			t.Errorf("Die(%d) is not the slice element", i)
		}
	}
}

func TestDieFingerprint(t *testing.T) {
	a := NewDie(3, CornerFast)
	b := NewDie(3, CornerFast)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical dies fingerprint differently")
	}
	for name, other := range map[string]*Die{
		"id":     NewDie(4, CornerFast),
		"corner": NewDie(3, CornerSlow),
		"tdq":    NewDie(3, CornerFast, WithExtraTDQOffsetNS(0.001)),
		"weak":   NewDie(3, CornerFast, WithWeakCell(7, 1.5)),
	} {
		if other.Fingerprint() == a.Fingerprint() {
			t.Errorf("%s variation not reflected in fingerprint", name)
		}
	}
	// Weak-cell iteration order must not matter.
	w1 := NewDie(0, CornerTypical, WithWeakCell(1, 1.5), WithWeakCell(2, 1.6), WithWeakCell(3, 1.7))
	w2 := NewDie(0, CornerTypical, WithWeakCell(3, 1.7), WithWeakCell(1, 1.5), WithWeakCell(2, 1.6))
	if w1.Fingerprint() != w2.Fingerprint() {
		t.Error("weak-cell insertion order changes fingerprint")
	}
}

func TestDeviceRetarget(t *testing.T) {
	geom := DefaultGeometry()
	d1 := NewDie(0, CornerSlow)
	d2 := NewDie(1, CornerFast)
	reused, err := NewDevice(geom, d1)
	if err != nil {
		t.Fatal(err)
	}
	seq := testgen.Sequence{
		{Op: testgen.OpWrite, Addr: 3, Data: 0xFFFFFFFF},
		{Op: testgen.OpRead, Addr: 3},
		{Op: testgen.OpWrite, Addr: 100, Data: 0x12345678},
		{Op: testgen.OpRead, Addr: 100},
	}
	tst := testgen.Test{Name: "retarget", Seq: seq, Cond: testgen.Conditions{VddV: 1.8, TempC: 25, ClockMHz: 100}}

	// Dirty the array and repair a row on die 1, then retarget to die 2.
	if _, err := reused.Profile(tst); err != nil {
		t.Fatal(err)
	}
	if err := reused.RepairRow(3); err != nil {
		t.Fatal(err)
	}
	if err := reused.Retarget(d2); err != nil {
		t.Fatal(err)
	}
	if reused.Die() != d2 {
		t.Fatal("Die() still the old die")
	}
	if reused.RepairedRows() != 0 {
		t.Errorf("repairs survived retarget: %d", reused.RepairedRows())
	}

	fresh, err := NewDevice(geom, d2)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := reused.Profile(tst)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := fresh.Profile(tst)
	if err != nil {
		t.Fatal(err)
	}
	if pa.TDQWindowNS() != pb.TDQWindowNS() || pa.FmaxMHz() != pb.FmaxMHz() || pa.VddMinV() != pb.VddMinV() {
		t.Errorf("retargeted device differs from fresh device: %v/%v/%v vs %v/%v/%v",
			pa.TDQWindowNS(), pa.FmaxMHz(), pa.VddMinV(),
			pb.TDQWindowNS(), pb.FmaxMHz(), pb.VddMinV())
	}
	if err := reused.Retarget(nil); err == nil {
		t.Error("Retarget(nil) accepted")
	}
}

func TestProfileBankMatchesDirectProfile(t *testing.T) {
	geom := DefaultGeometry()
	bank, err := NewProfileBank(geom, DefaultPhysics())
	if err != nil {
		t.Fatal(err)
	}
	seq := testgen.Sequence{
		{Op: testgen.OpWrite, Addr: 1, Data: 0xAAAAAAAA},
		{Op: testgen.OpWrite, Addr: 2, Data: 0x55555555},
		{Op: testgen.OpRead, Addr: 1},
		{Op: testgen.OpRead, Addr: 2},
	}
	tst := testgen.Test{Name: "bank", Seq: seq, Cond: testgen.Conditions{VddV: 1.62, TempC: 85, ClockMHz: 120}}

	dies := []*Die{
		NewDie(0, CornerTypical),
		NewDie(1, CornerFast),
		NewDie(2, CornerSlow, WithExtraTDQOffsetNS(-2)),
		NewDie(3, CornerTypical, WithWeakCell(1, 2.5)), // corrupts: forces bypass
	}
	for _, die := range dies {
		dev, err := NewDevice(geom, die)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := dev.Profile(tst)
		if err != nil {
			t.Fatal(err)
		}
		banked, err := bank.Profile(dev, tst)
		if err != nil {
			t.Fatal(err)
		}
		if banked.Act != direct.Act {
			t.Errorf("die %d: banked activity differs: %+v vs %+v", die.ID, banked.Act, direct.Act)
		}
		if banked.Func.Mismatches != direct.Func.Mismatches || banked.Func.ReadCount != direct.Func.ReadCount {
			t.Errorf("die %d: banked functional result differs", die.ID)
		}
		if banked.TDQWindowNS() != direct.TDQWindowNS() ||
			banked.FmaxMHz() != direct.FmaxMHz() ||
			banked.VddMinV() != direct.VddMinV() {
			t.Errorf("die %d: banked parametrics differ", die.ID)
		}
	}
	// Three clean dies share one execution; the weak die bypasses.
	if bank.Computed() != 1 {
		t.Errorf("Computed = %d, want 1", bank.Computed())
	}
	if bank.Hits() != 2 {
		t.Errorf("Hits = %d, want 2", bank.Hits())
	}
	if bank.Bypassed() != 1 {
		t.Errorf("Bypassed = %d, want 1", bank.Bypassed())
	}
	if bank.Len() != 1 {
		t.Errorf("Len = %d, want 1", bank.Len())
	}
}

func TestProfileBankThroughATEProfiler(t *testing.T) {
	// The bank slots into the ATE's Profiler hook without changing
	// measurement outcomes for clean dies.
	geom := DefaultGeometry()
	bank, err := NewProfileBank(geom, DefaultPhysics())
	if err != nil {
		t.Fatal(err)
	}
	die := NewDie(0, CornerSlow)
	seq := testgen.Sequence{
		{Op: testgen.OpWrite, Addr: 1, Data: 0xFFFF0000},
		{Op: testgen.OpRead, Addr: 1},
	}
	tst := testgen.Test{Name: "hook", Seq: seq, Cond: testgen.Conditions{VddV: 1.8, TempC: 25, ClockMHz: 100}}

	run := func(profiler func(*Device, testgen.Test) (Profile, error)) Profile {
		dev, err := NewDevice(geom, die)
		if err != nil {
			t.Fatal(err)
		}
		if profiler != nil {
			p, err := profiler(dev, tst)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		p, err := dev.Profile(tst)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	direct := run(nil)
	banked := run(bank.Profile)
	if direct.Act != banked.Act || direct.TDQWindowNS() != banked.TDQWindowNS() {
		t.Error("profiler hook path diverges from direct profiling")
	}
}

func TestProfileBankConcurrentCounts(t *testing.T) {
	// Concurrent clean-die hits share one read lock; the counters must
	// still add up exactly and every banked profile must equal the direct
	// one. Run under -race.
	geom := DefaultGeometry()
	bank, err := NewProfileBank(geom, DefaultPhysics())
	if err != nil {
		t.Fatal(err)
	}
	tests := make([]testgen.Test, 3)
	for k := range tests {
		seq := testgen.Sequence{
			{Op: testgen.OpWrite, Addr: uint32(k), Data: 0xF0F0F0F0},
			{Op: testgen.OpRead, Addr: uint32(k)},
		}
		tests[k] = testgen.Test{Name: fmt.Sprint("t", k), Seq: seq, Cond: testgen.NominalConditions()}
	}
	clean := NewDie(0, CornerTypical)
	weak := NewDie(1, CornerTypical, WithWeakCell(0, 2.5))
	want := make([]Profile, len(tests))
	for k, tst := range tests {
		dev, err := NewDevice(geom, clean)
		if err != nil {
			t.Fatal(err)
		}
		if want[k], err = dev.Profile(tst); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines, rounds = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			die := clean
			if g == 0 {
				die = weak
			}
			dev, err := NewDevice(geom, die)
			if err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < rounds; r++ {
				for k, tst := range tests {
					p, err := bank.Profile(dev, tst)
					if err != nil {
						t.Error(err)
						return
					}
					if g != 0 && (p.Act != want[k].Act || p.TDQWindowNS() != want[k].TDQWindowNS()) {
						t.Errorf("goroutine %d test %d: banked profile differs from direct", g, k)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	calls := int64(rounds * len(tests))
	if got := bank.Bypassed(); got != calls {
		t.Errorf("Bypassed = %d, want %d (the weak die's calls)", got, calls)
	}
	if got := bank.Hits() + bank.Computed(); got != (goroutines-1)*calls {
		t.Errorf("Hits+Computed = %d, want %d clean calls", got, (goroutines-1)*calls)
	}
	// Racing first misses may each execute, but never more than once per
	// goroutine and sequence.
	if c := bank.Computed(); c < int64(len(tests)) || c > int64((goroutines-1)*len(tests)) {
		t.Errorf("Computed = %d, want %d..%d", c, len(tests), (goroutines-1)*len(tests))
	}
	if bank.Len() != len(tests) {
		t.Errorf("Len = %d, want %d", bank.Len(), len(tests))
	}
}
