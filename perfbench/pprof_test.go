package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pbWriter encodes the few protobuf shapes a synthetic profile needs.
type pbWriter struct{ bytes.Buffer }

func (w *pbWriter) varint(v uint64) {
	for v >= 0x80 {
		w.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	w.WriteByte(byte(v))
}

func (w *pbWriter) uintField(num int, v uint64) {
	w.varint(uint64(num)<<3 | wireVarint)
	w.varint(v)
}

func (w *pbWriter) bytesField(num int, b []byte) {
	w.varint(uint64(num)<<3 | wireBytes)
	w.varint(uint64(len(b)))
	w.Write(b)
}

func (w *pbWriter) packed(num int, vs ...uint64) {
	var p pbWriter
	for _, v := range vs {
		p.varint(v)
	}
	w.bytesField(num, p.Bytes())
}

// syntheticProfile builds a gzipped CPU profile. Each stack lists function
// names leaf first; a stack entry holding several names separated by "|"
// is one location with inlined frames. Samples alternate packed and
// unpacked encodings, as both are legal.
func syntheticProfile(t *testing.T, stacks [][]string, weights []int64) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var p pbWriter
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var m pbWriter
		m.uintField(1, str(vt[0]))
		m.uintField(2, str(vt[1]))
		p.bytesField(1, m.Bytes())
	}
	funcIDs := map[string]uint64{}
	var funcs, locs pbWriter
	nextLoc := uint64(1)
	for si, stack := range stacks {
		var locIDs []uint64
		for _, frame := range stack {
			var loc pbWriter
			loc.uintField(1, nextLoc)
			for _, name := range bytes.Split([]byte(frame), []byte("|")) {
				id, ok := funcIDs[string(name)]
				if !ok {
					id = uint64(len(funcIDs) + 1)
					funcIDs[string(name)] = id
					var fn pbWriter
					fn.uintField(1, id)
					fn.uintField(2, str(string(name)))
					funcs.bytesField(5, fn.Bytes())
				}
				var line pbWriter
				line.uintField(1, id)
				loc.bytesField(4, line.Bytes())
			}
			locs.bytesField(4, loc.Bytes())
			locIDs = append(locIDs, nextLoc)
			nextLoc++
		}
		var s pbWriter
		if si%2 == 0 {
			s.packed(1, locIDs...)
			s.packed(2, 1, uint64(weights[si]))
		} else {
			for _, id := range locIDs {
				s.uintField(1, id)
			}
			s.uintField(2, 1)
			s.uintField(2, uint64(weights[si]))
		}
		p.bytesField(2, s.Bytes())
	}
	p.Write(locs.Bytes())
	p.Write(funcs.Bytes())
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestCPUBucketingOnSyntheticProfile(t *testing.T) {
	stacks := [][]string{
		{"math/rand.seedrand", "math/rand.(*rngSource).Seed", "repro/internal/ate.(*ATE).Reseed", "repro/internal/core.ScreenLotStream.func1"},
		{"repro/internal/dut.Geometry.Decode|repro/internal/dut.(*Memory).ExecuteObserved", "repro/internal/ate.(*ATE).load"},
		{"runtime.memmove", "repro/internal/dut.(*WaferLot).Die"},
		{"runtime.memmove", "runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"repro/internal/parallel.stream[go.shape.*repro/internal/core.task]", "repro/internal/parallel.(*Fleet).worker"},
		{"syscall.Syscall6", "os.(*File).Sync", "repro/internal/jobs.(*Queue).append"},
		{"repro/internal/testgen.Test.Fingerprint", "repro/internal/telemetry/flight.(*Recorder).Item"},
		{"fmt.Sprintf", "repro/internal/cli.Run"},
	}
	weights := []int64{40, 20, 10, 10, 5, 5, 6, 4}
	samples, err := parseProfile(syntheticProfile(t, stacks, weights))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(stacks))
	}
	if got := samples[1].frames; len(got) != 3 || got[0] != "repro/internal/dut.Geometry.Decode" {
		t.Errorf("inlined frames not expanded leaf first: %v", got)
	}
	shares := bucketSamples(samples)
	want := map[string]float64{
		"cpu.rand_seed":               0.40,
		"cpu.dut":                     0.20,
		"cpu.runtime_copy":            0.10,
		"cpu.runtime_gc":              0.10, // GC wins over the memmove leaf
		"cpu.parallel":                0.05,
		"cpu.syscall":                 0.05,
		"cpu.testgen":                 0.06,
		"cpu.ate":                     0,
		"cpu.jobs":                    0,
		"cpu.cum.dut_decode":          0.20,
		"cpu.cum.dut_execute":         0.20,
		"cpu.cum.ate_load":            0.20,
		"cpu.cum.dut_wafer":           0.10,
		"cpu.cum.testgen_fingerprint": 0.06,
		"cpu.cum.testgen_features":    0,
	}
	for name, w := range want {
		if got := shares[name]; math.Abs(got-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	for _, n := range cpuShareNames() {
		if _, ok := shares[n]; !ok {
			t.Errorf("share %s missing", n)
		}
	}
}

func TestParseRealCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	x := 1.0
	for time.Now().Before(deadline) {
		x = math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	if _, err := parseProfile(buf.Bytes()); err != nil {
		t.Fatalf("parsing a runtime/pprof profile: %v (x=%v)", err, x)
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/dut.(*Memory).ExecuteObserved": "repro/internal/dut",
		"runtime.memmove":             "runtime",
		"math/rand.(*rngSource).Seed": "math/rand",
		"repro/internal/parallel.Map[go.shape.*repro/internal/core.x].f": "repro/internal/parallel",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}
