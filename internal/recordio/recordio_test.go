package recordio

// Property and fault suite: Append∘Scan is the identity, a cut at any byte
// degrades to a clean prefix with only the final frame torn, a flipped byte
// anywhere before the final frame is a hard error at that frame's offset,
// and injected write/fsync/rename faults or a crash after any step leave a
// published file at its old or new bytes and an appended file at its
// committed prefix.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/proptest"
)

const testMaxLen = 1 << 12

// genPayloads draws 1..12 payloads of 0..48 random bytes.
func genPayloads(pt *proptest.T) [][]byte {
	out := make([][]byte, pt.IntRange(1, 12))
	for i := range out {
		out[i] = pt.Bytes(48)
	}
	return out
}

// frameAll frames payloads and returns the bytes and each frame's offset.
func frameAll(payloads [][]byte) (data []byte, offs []int) {
	for _, p := range payloads {
		offs = append(offs, len(data))
		data = Append(data, p)
	}
	return data, offs
}

// scanAll collects copies of every payload Scan yields before it stops.
func scanAll(data []byte) ([][]byte, error) {
	var got [][]byte
	err := Scan(data, testMaxLen, func(p []byte) error {
		got = append(got, bytes.Clone(p))
		return nil
	})
	return got, err
}

func samePayloads(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestAppendScanRoundTrip(t *testing.T) {
	proptest.Check(t, 200, func(pt *proptest.T) {
		payloads := genPayloads(pt)
		data, _ := frameAll(payloads)
		got, err := scanAll(data)
		if err != nil {
			pt.Fatalf("Scan: %v", err)
		}
		if !samePayloads(got, payloads) {
			pt.Fatalf("round trip: got %d payloads %q, want %q", len(got), got, payloads)
		}
	})
}

// TestAppendMultiPart: a payload given in parts frames exactly like the
// same bytes given whole.
func TestAppendMultiPart(t *testing.T) {
	whole := Append(nil, []byte("key-value"))
	parts := Append(nil, []byte("key"), nil, []byte("-value"))
	if !bytes.Equal(whole, parts) {
		t.Fatalf("multi-part frame %x differs from %x", parts, whole)
	}
	if len(whole) != Overhead+len("key-value") {
		t.Fatalf("frame is %d bytes, want %d", len(whole), Overhead+len("key-value"))
	}
}

// TestScanTruncationProperty: cutting the data at any byte yields exactly
// the frames that fit, and a cut inside a frame is reported Torn at that
// frame's offset.
func TestScanTruncationProperty(t *testing.T) {
	proptest.Check(t, 60, func(pt *proptest.T) {
		payloads := genPayloads(pt)
		data, offs := frameAll(payloads)
		offs = append(offs, len(data))
		for cut := 0; cut <= len(data); cut++ {
			got, err := scanAll(data[:cut])
			whole := 0
			for whole+1 < len(offs) && offs[whole+1] <= cut {
				whole++
			}
			if !samePayloads(got, payloads[:whole]) {
				pt.Fatalf("cut %d: %d payloads, want the first %d", cut, len(got), whole)
			}
			if cut == offs[whole] {
				if err != nil {
					pt.Fatalf("cut %d on a frame boundary: %v", cut, err)
				}
				continue
			}
			var re *Error
			if !errors.As(err, &re) || !re.Torn || re.Offset != offs[whole] {
				pt.Fatalf("cut %d: err %v, want a torn frame at offset %d", cut, err, offs[whole])
			}
		}
	})
}

// TestScanCorruptionProperty: flipping any byte of any frame but the last
// is a hard (not torn) error at the offset of the frame holding that byte.
func TestScanCorruptionProperty(t *testing.T) {
	proptest.Check(t, 60, func(pt *proptest.T) {
		payloads := genPayloads(pt)
		if len(payloads) < 2 {
			pt.Discard()
		}
		data, offs := frameAll(payloads)
		flip := byte(pt.IntRange(1, 255))
		frameIdx := 0
		for pos := 0; pos < offs[len(offs)-1]; pos++ {
			for frameIdx+1 < len(offs) && offs[frameIdx+1] <= pos {
				frameIdx++
			}
			mut := bytes.Clone(data)
			mut[pos] ^= flip
			_, err := scanAll(mut)
			var re *Error
			if !errors.As(err, &re) || re.Torn || re.Offset != offs[frameIdx] {
				pt.Fatalf("flip 0x%02x at byte %d: err %v, want a hard error at offset %d",
					flip, pos, err, offs[frameIdx])
			}
		}
	})
}

func TestScanRejectsOversizedFrame(t *testing.T) {
	data := Append(nil, make([]byte, 32))
	var re *Error
	if err := Scan(data, 31, func([]byte) error { return nil }); !errors.As(err, &re) || re.Torn || re.Offset != 0 {
		t.Fatalf("oversized frame: err %v, want a hard error at offset 0", err)
	}
}

// TestScanWrapsCallbackError: fn's error stops the scan and comes back as
// an *Error naming the frame, never torn.
func TestScanWrapsCallbackError(t *testing.T) {
	data := Append(Append(nil, []byte("a")), []byte("b"))
	boom := errors.New("boom")
	err := Scan(data, testMaxLen, func(p []byte) error {
		if string(p) == "b" {
			return boom
		}
		return nil
	})
	var re *Error
	if !errors.As(err, &re) || re.Torn || re.Offset != Overhead+1 || re.Err != boom {
		t.Fatalf("callback error: %v, want boom at offset %d", err, Overhead+1)
	}
}

// injector counts file operations and fails the ones in fail: a failing
// operation returns err instead of running (a failing write first gets
// short bytes of its input through). From operation crashAt on (when set)
// nothing runs any more, as if the process had died there.
type injector struct {
	n       int
	fail    map[int]bool
	crashAt int
	short   int
	err     error
}

var errCrashed = errors.New("crashed")

// step counts one operation and reports whether it runs and, if not, the
// error it returns instead.
func (in *injector) step() (run bool, err error) {
	in.n++
	switch {
	case in.crashAt > 0 && in.n >= in.crashAt:
		return false, errCrashed
	case in.fail[in.n]:
		return false, in.err
	}
	return true, nil
}

type faultFile struct {
	*os.File
	in *injector
}

func (ff faultFile) Write(p []byte) (int, error) {
	if run, err := ff.in.step(); !run {
		if err == errCrashed {
			return 0, err
		}
		n, _ := ff.File.Write(p[:min(ff.in.short, len(p))])
		return n, err
	}
	return ff.File.Write(p)
}

func (ff faultFile) Sync() error {
	if run, err := ff.in.step(); !run {
		return err
	}
	return ff.File.Sync()
}

func (ff faultFile) Truncate(size int64) error {
	if run, err := ff.in.step(); !run {
		return err
	}
	return ff.File.Truncate(size)
}

// Close always releases the descriptor; an injected failure only changes
// what it reports.
func (ff faultFile) Close() error {
	run, err := ff.in.step()
	cerr := ff.File.Close()
	if !run {
		return err
	}
	return cerr
}

func (in *injector) ops() fileOps {
	return fileOps{
		createTemp: func(dir, pattern string) (File, error) {
			if run, err := in.step(); !run {
				return nil, err
			}
			f, err := os.CreateTemp(dir, pattern)
			if err != nil {
				return nil, err
			}
			return faultFile{f, in}, nil
		},
		rename: func(oldpath, newpath string) error {
			if run, err := in.step(); !run {
				return err
			}
			return os.Rename(oldpath, newpath)
		},
		open: func(name string) (File, error) {
			if run, err := in.step(); !run {
				return nil, err
			}
			f, err := os.Open(name)
			if err != nil {
				return nil, err
			}
			return faultFile{f, in}, nil
		},
	}
}

// faults are the injected failures both fault tests run at every step.
var faults = []struct {
	name  string
	err   error
	short int
}{
	{"short write", io.ErrShortWrite, 5},
	{"ENOSPC", syscall.ENOSPC, 0},
	{"EIO", syscall.EIO, 3},
}

// publishOps is the number of operations a successful writeFileAtomic
// performs: create, write, fsync, close, rename, then open, fsync and
// close of the directory; the rename is operation renameOp.
const publishOps, renameOp = 8, 5

func TestWriteFileAtomicFaults(t *testing.T) {
	oldBytes, newBytes := []byte("old record bytes"), []byte("the new, longer record bytes")
	for _, existed := range []bool{true, false} {
		for _, fault := range faults {
			for _, crash := range []bool{false, true} {
				for k := 1; k <= publishOps; k++ {
					name := fmt.Sprintf("existed=%v/%s/crash=%v/op%d", existed, fault.name, crash, k)
					dir := t.TempDir()
					path := filepath.Join(dir, "target")
					if existed {
						if err := os.WriteFile(path, oldBytes, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					in := &injector{fail: map[int]bool{k: !crash}, short: fault.short, err: fault.err}
					if crash {
						in.crashAt = k
					}
					if err := writeFileAtomic(in.ops(), path, newBytes); err == nil {
						t.Errorf("%s: no error reported", name)
					}
					got, rerr := os.ReadFile(path)
					switch {
					case rerr == nil && bytes.Equal(got, newBytes):
						if k <= renameOp {
							t.Errorf("%s: new bytes published before the rename", name)
						}
					case rerr == nil && existed && bytes.Equal(got, oldBytes):
						if k > renameOp && !crash {
							t.Errorf("%s: rename lost", name)
						}
					case os.IsNotExist(rerr) && !existed:
					default:
						t.Errorf("%s: target holds %q (err %v): neither old nor new bytes", name, got, rerr)
					}
					if crash {
						// A process that died there never reaches its cleanup,
						// so a temp file may survive; readers never look at it.
						continue
					}
					if entries, _ := os.ReadDir(dir); len(entries) > 1 || (len(entries) == 1 && entries[0].Name() != "target") {
						t.Errorf("%s: temp file left behind: %v", name, entries)
					}
				}
			}
		}
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	for _, want := range []string{"first", "second"} {
		if err := WriteFileAtomic(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("read back %q, %v; want %q", got, err, want)
		}
	}
	if err := WriteFileAtomic(filepath.Join(t.TempDir(), "missing", "f"), nil); err == nil {
		t.Fatal("publishing into a missing directory succeeded")
	}
}

func TestProbeDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "dir")
	if err := ProbeDir(dir); err != nil {
		t.Fatalf("ProbeDir: %v", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("probe left %v behind (%v)", entries, err)
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ProbeDir(file); err == nil {
		t.Fatal("ProbeDir accepted a regular file")
	}
}

// openLog returns a log over a fresh file holding header and the frames
// of committed, its file wrapped in an injector.
func openLog(t *testing.T, header []byte, committed [][]byte, in *injector) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log")
	data := header
	for _, p := range committed {
		data = Append(data, p)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewLog(faultFile{f, in}, int64(len(data))), path
}

// TestLogAppendFaults: a failed append leaves the file at exactly its
// committed prefix and the next append lands cleanly behind it; a failed
// rollback closes the log; a crash after any step leaves the committed
// frames followed by at most a torn or complete new frame.
func TestLogAppendFaults(t *testing.T) {
	header := []byte("HDR1")
	committed := [][]byte{[]byte("one"), []byte("two")}
	next, later := []byte("three, unacknowledged"), []byte("four")
	want := header
	for _, p := range committed {
		want = Append(want, p)
	}
	for _, fault := range faults {
		for k := 1; k <= 2; k++ { // the failed write, or its fsync
			name := fmt.Sprintf("%s/op%d", fault.name, k)
			in := &injector{fail: map[int]bool{k: true}, short: fault.short, err: fault.err}
			l, path := openLog(t, header, committed, in)
			if err := l.Append(next); !errors.Is(err, fault.err) {
				t.Errorf("%s: Append err %v, want %v", name, err, fault.err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
				t.Errorf("%s: file is %q after the failed append, want the committed %q", name, got, want)
			}
			if err := l.Append(later); err != nil {
				t.Errorf("%s: append after rollback: %v", name, err)
			}
			got, _ := os.ReadFile(path)
			if payloads, err := scanAll(got[len(header):]); err != nil || !samePayloads(payloads, append(committed[:2:2], later)) {
				t.Errorf("%s: reopened log holds %q (%v), want the committed frames then %q", name, payloads, err, later)
			}
			l.Close()
		}
		for k := 3; k <= 4; k++ { // the rollback's truncate, or its fsync
			name := fmt.Sprintf("%s/rollback-op%d", fault.name, k)
			in := &injector{fail: map[int]bool{2: true, k: true}, short: fault.short, err: fault.err}
			l, path := openLog(t, header, committed, in)
			if err := l.Append(next); err == nil {
				t.Errorf("%s: Append reported success", name)
			}
			before, _ := os.ReadFile(path)
			if err := l.Append(later); err == nil {
				t.Errorf("%s: log did not fail closed", name)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
				t.Errorf("%s: a closed log still wrote", name)
			}
			l.Close()
		}
	}
	for k := 0; k <= 4; k++ {
		name := fmt.Sprintf("crash-after-op%d", k)
		in := &injector{crashAt: k + 1}
		l, path := openLog(t, header, committed, in)
		l.Append(next)
		got, _ := os.ReadFile(path)
		payloads, err := scanAll(got[len(header):])
		var re *Error
		switch {
		case err == nil && (samePayloads(payloads, committed) || samePayloads(payloads, append(committed[:2:2], next))):
		case errors.As(err, &re) && re.Torn && re.Offset == len(want)-len(header) && samePayloads(payloads, committed):
		default:
			t.Errorf("%s: log holds %q (%v), want the committed frames and at most a torn tail", name, payloads, err)
		}
		l.Close()
	}
}

// FuzzRecordScan: Scan never panics, and every payload it accepts re-frames
// to exactly the bytes it consumed.
func FuzzRecordScan(f *testing.F) {
	f.Add([]byte{})
	f.Add(Append(nil, []byte("payload")))
	f.Add(Append(Append(nil, nil), []byte("second"))[:11])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var reframed []byte
		err := Scan(data, testMaxLen, func(p []byte) error {
			reframed = Append(reframed, p)
			return nil
		})
		consumed := len(data)
		if err != nil {
			var re *Error
			if !errors.As(err, &re) || re.Offset < 0 || re.Offset >= len(data) {
				t.Fatalf("Scan error %v is not an *Error inside the data", err)
			}
			consumed = re.Offset
		}
		if !bytes.Equal(reframed, data[:consumed]) {
			t.Fatalf("accepted payloads re-frame to %x, consumed %x", reframed, data[:consumed])
		}
	})
}
