// Package recordio is the one record format of the repo's on-disk stores
// (cachestore segments, runstore records, the jobs journal) and the two
// ways they reach disk, WriteFileAtomic and Log. A frame is
//
//	[u32be payload length][payload][u32be CRC-32 IEEE over length+payload]
//
// Each store puts its own magic before its frames and keeps its own policy
// as a check on Error.Torn: the journal drops a torn tail, the other stores
// treat every bad frame as corruption.
package recordio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Overhead is the framing cost of one record.
const Overhead = 8

// Append appends to dst one frame whose payload is the concatenation of parts.
func Append(dst []byte, parts ...[]byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// Error is Scan's failure at the frame starting Offset bytes into the data.
// Torn marks the final frame cut short, or failing its checksum exactly at
// the end of the data: all that an interrupted append can leave behind.
type Error struct {
	Offset int
	Torn   bool
	Err    error
}

func (e *Error) Error() string { return fmt.Sprintf("%v at offset %d", e.Err, e.Offset) }

var errShort, errChecksum = errors.New("truncated frame"), errors.New("frame checksum mismatch")

// Scan calls fn with each frame's payload, a subslice of data that fn must
// copy to keep, until the data ends or a frame fails. A length above
// maxLen is corruption: a torn write never alters a length prefix. Every
// failure, fn's own included, is an *Error.
func Scan(data []byte, maxLen int, fn func(payload []byte) error) error {
	for off := 0; off < len(data); {
		n, err := frame(data[off:], maxLen)
		if err == nil {
			err = fn(data[off+4 : off+4+n])
		}
		if err != nil {
			return &Error{Offset: off, Torn: torn(data[off:], maxLen, err), Err: err}
		}
		off += n + Overhead
	}
	return nil
}

// frame checks the frame at the start of b and returns its payload length.
func frame(b []byte, maxLen int) (int, error) {
	if len(b) < 4 {
		return 0, errShort
	}
	switch n := int(binary.BigEndian.Uint32(b)); {
	case n > maxLen:
		return 0, fmt.Errorf("frame length %d over the %d-byte limit", n, maxLen)
	case len(b) < n+Overhead:
		return 0, errShort
	case crc32.ChecksumIEEE(b[:4+n]) != binary.BigEndian.Uint32(b[4+n:]):
		return 0, errChecksum
	default:
		return n, nil
	}
}

// torn reports whether err at the start of rest is a torn final frame, not
// a corrupted length prefix with intact frames resuming inside it.
func torn(rest []byte, maxLen int, err error) bool {
	if err != errShort && (err != errChecksum || int(binary.BigEndian.Uint32(rest))+Overhead != len(rest)) {
		return false
	}
	for p := 1; p < len(rest); p++ {
		b := rest[p:]
		for n, ferr := frame(b, maxLen); ferr == nil; n, ferr = frame(b, maxLen) {
			if b = b[n+Overhead:]; len(b) == 0 {
				return false
			}
		}
	}
	return true
}

// File is what Log and WriteFileAtomic need of an *os.File; tests
// substitute it to inject faults.
type File interface {
	Name() string
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Log appends frames durably to an O_APPEND file; not safe for concurrent use.
type Log struct {
	f    File
	size int64
	err  error // set once a failed append could not be rolled back
}

// NewLog returns a log over f, whose first size bytes are committed.
func NewLog(f File, size int64) *Log { return &Log{f: f, size: size} }

// Append writes and fsyncs one frame, committed only if Append returns nil.
// A failed write or fsync is truncated away, so it can neither break the
// next append nor come back on reopen; if that rollback fails too, the log
// fails closed and every later Append returns the error.
func (l *Log) Append(payload []byte) error {
	if l.err != nil {
		return l.err
	}
	b := Append(nil, payload)
	_, err := l.f.Write(b)
	if err == nil {
		err = l.f.Sync()
	}
	if err == nil {
		l.size += int64(len(b))
		return nil
	}
	if rerr := errors.Join(l.f.Truncate(l.size), l.f.Sync()); rerr != nil {
		l.err = fmt.Errorf("recordio: log failed closed: %v, then rollback: %w", err, rerr)
		return l.err
	}
	return fmt.Errorf("recordio: append rolled back: %w", err)
}

// Close closes the file.
func (l *Log) Close() error { return l.f.Close() }

// fileOps is the file-system seam of WriteFileAtomic, for fault tests.
type fileOps struct {
	createTemp func(dir, pattern string) (File, error)
	rename     func(oldpath, newpath string) error
	open       func(name string) (File, error)
}

var osFileOps = fileOps{
	createTemp: func(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) },
	rename:     os.Rename,
	open:       func(name string) (File, error) { return os.Open(name) },
}

// WriteFileAtomic publishes data at path: temp file, write, fsync, close,
// rename, then an fsync of the directory so the rename survives a power
// failure. Readers see the old bytes or the new, and an error return
// leaves no temp file behind.
func WriteFileAtomic(path string, data []byte) error {
	return writeFileAtomic(osFileOps, path, data)
}

func writeFileAtomic(ops fileOps, path string, data []byte) error {
	f, err := ops.createTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err == nil {
		if _, err = f.Write(data); err == nil {
			err = f.Sync()
		}
		if err = errors.Join(err, f.Close()); err == nil {
			err = ops.rename(f.Name(), path)
		}
		if err != nil {
			os.Remove(f.Name()) // best effort: the publish already failed
		} else if f, err = ops.open(filepath.Dir(path)); err == nil { // the directory
			err = errors.Join(f.Sync(), f.Close())
		}
	}
	if err != nil {
		return fmt.Errorf("recordio: publishing %s: %w", path, err)
	}
	return nil
}

// ProbeDir creates dir if needed and checks that files can be created in
// it, so a bad directory flag fails before any work runs.
func ProbeDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	probe, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return err
	}
	probe.Close()
	return os.Remove(probe.Name())
}
