// Package cachestore persists measurement memo-caches across process
// lifetimes: a content-addressed key/value store whose on-disk form is a
// directory of immutable, CRC-checked, append-only segment files. A fab
// floor re-running a lot (or a characterization flow re-run with the same
// seed) opens the same cache directory and serves the bulk of its
// measurements from disk instead of burning ATE time again.
//
// On-disk format. A segment file is
//
//	header : magic "RPROCST2" (8 bytes) + scope (8 bytes, little-endian)
//	records: one recordio frame each, payload = key (8 LE) ‖ value bytes
//
// so a record costs 16 bytes plus its value. A segment is written once, by
// recordio.WriteFileAtomic. Flush writes only the entries added since Open
// (one new segment per flush, numbered after the existing ones); loading
// replays segments in filename order, later segments overriding earlier
// keys.
//
// The scope tags which logical cache a segment belongs to (parameter,
// geometry, seed, flow — whatever the caller folds into the 64-bit value).
// Open skips segments of other scopes, so several flows can share one
// -cache-dir without poisoning each other's keys. Segments of the retired
// "RPROCST1" layout are skipped the same way, so an old cache directory
// rebuilds cold on its own.
//
// Corruption policy: a segment whose magic, record framing or CRC does not
// check out fails Open with an error naming the file and the byte offset
// of the first bad record. Callers that prefer running cold to failing
// (the CLIs) log the error and proceed without a store.
package cachestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/recordio"
)

// magic identifies (and versions) the segment format; magicV1 segments,
// the layout before recordio framing, are skipped like a foreign scope.
const magic, magicV1 = "RPROCST2", "RPROCST1"

// headerSize is the fixed segment prefix: magic + scope.
const headerSize = 16

// keySize is the key prefix of every record payload.
const keySize = 8

// maxValueLen bounds a single record's value so a corrupt length field
// cannot trigger a multi-gigabyte allocation during load.
const maxValueLen = 1 << 20

// segPattern matches the segment files a store owns.
const segSuffix = ".seg"

// Stats are the store's lifetime counters since Open.
type Stats struct {
	// LoadedEntries is the number of distinct keys loaded from disk
	// (after later-segment overrides).
	LoadedEntries int64
	// LoadedSegments and SkippedSegments count segment files read and
	// segment files ignored because their scope differs (or they are v1).
	LoadedSegments  int64
	SkippedSegments int64
	// Hits and Misses count Get outcomes.
	Hits   int64
	Misses int64
	// FlushedEntries is the number of records written by Flush calls.
	FlushedEntries int64
	// BytesOnDisk is the total size of this scope's segment files, updated
	// at Open and after every Flush.
	BytesOnDisk int64
}

// Store is one open cache directory scoped to a single logical cache. It
// is safe for concurrent use; the deterministic pipelines call it from
// serial program points anyway so counter order stays reproducible.
type Store struct {
	dir   string
	scope uint64

	mu    sync.RWMutex
	m     map[uint64][]byte
	dirty []uint64 // keys added/changed since the last Flush, insertion order
	isDir map[uint64]bool
	stats Stats
	seq   int // next segment sequence number
}

// Open loads every matching-scope segment in dir (creating dir when
// missing) and returns the store. A corrupt segment aborts the open with
// an error naming the file and byte offset; the returned store is nil.
func Open(dir string, scope uint64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("cachestore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachestore: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:   dir,
		scope: scope,
		m:     make(map[uint64][]byte),
		isDir: make(map[uint64]bool),
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		path := filepath.Join(dir, name)
		if seq, ok := segmentSeq(name); ok && seq >= s.seq {
			s.seq = seq + 1
		}
		loaded, size, err := s.loadSegment(path)
		if err != nil {
			return nil, err
		}
		if loaded {
			s.stats.LoadedSegments++
			s.stats.BytesOnDisk += size
		} else {
			s.stats.SkippedSegments++
		}
	}
	s.stats.LoadedEntries = int64(len(s.m))
	return s, nil
}

// segmentNames lists the store's segment files in lexical (= load) order.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cachestore: reading %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		if e.Type().IsRegular() && strings.HasSuffix(e.Name(), segSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// segmentSeq parses the sequence number out of a "seg-%08d-%016x.seg"
// filename; foreign names report !ok and are only loaded, never counted
// toward the next sequence number.
func segmentSeq(name string) (int, bool) {
	var seq int
	var scope uint64
	n, err := fmt.Sscanf(name, "seg-%08d-%016x"+segSuffix, &seq, &scope)
	return seq, err == nil && n == 2
}

// loadSegment reads one segment file into the map. Segments of a different
// scope or of the v1 layout report loaded == false and are otherwise
// ignored. A bad record is an error naming the file and its byte offset.
func (s *Store) loadSegment(path string) (loaded bool, size int64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, 0, fmt.Errorf("cachestore: reading segment: %w", err)
	}
	switch {
	case bytes.HasPrefix(raw, []byte(magicV1)):
		return false, 0, nil
	case len(raw) < headerSize || string(raw[:8]) != magic:
		return false, 0, fmt.Errorf("cachestore: %s: corrupt segment at offset 0: bad magic", path)
	case binary.LittleEndian.Uint64(raw[8:16]) != s.scope:
		return false, 0, nil
	}
	err = recordio.Scan(raw[headerSize:], keySize+maxValueLen, func(rec []byte) error {
		if len(rec) < keySize {
			return errors.New("record shorter than its key")
		}
		// Copy out of the read buffer so the whole file can be collected.
		key := binary.LittleEndian.Uint64(rec)
		s.m[key] = append([]byte(nil), rec[keySize:]...)
		s.isDir[key] = true
		return nil
	})
	var re *recordio.Error
	if errors.As(err, &re) {
		return false, 0, fmt.Errorf("cachestore: %s: corrupt segment at offset %d: %v", path, headerSize+re.Offset, re.Err)
	}
	return true, int64(len(raw)), nil
}

// Len returns the number of entries (loaded plus added).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Stats returns a copy of the lifetime counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

// BytesOnDisk returns the total size of this scope's segments.
func (s *Store) BytesOnDisk() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats.BytesOnDisk
}

// Get returns the stored value for key, counting a hit or a miss. The
// returned slice is shared: callers must not modify it.
func (s *Store) Get(key uint64) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	return v, ok
}

// Put stores value under key. New and changed entries are queued (in Put
// order) for the next Flush; writing a key back with its current on-disk
// value is a no-op. The value is copied.
func (s *Store) Put(key uint64, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.m[key]
	if ok && string(old) == string(value) {
		return
	}
	s.m[key] = append([]byte(nil), value...)
	// A new key or an override of a persisted entry needs a record in the
	// next segment; an entry already pending keeps its queue position.
	if !ok || s.isDir[key] {
		delete(s.isDir, key)
		s.dirty = append(s.dirty, key)
	}
}

// Range calls fn for every entry until fn returns false, in unspecified
// order. The value slices are shared: do not modify them.
func (s *Store) Range(fn func(key uint64, value []byte) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, v := range s.m {
		if !fn(k, v) {
			return
		}
	}
}

// Flush writes the entries added or changed since the last Flush (in their
// insertion order, so the segment bytes are deterministic for a
// deterministic caller) into one new segment. With nothing dirty it writes
// nothing. Returns the number of records written.
func (s *Store) Flush() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.dirty) == 0 {
		return 0, nil
	}
	buf := make([]byte, 0, headerSize+len(s.dirty)*(recordio.Overhead+keySize+16))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint64(buf, s.scope)
	var key [keySize]byte
	for _, k := range s.dirty {
		binary.LittleEndian.PutUint64(key[:], k)
		buf = recordio.Append(buf, key[:], s.m[k])
	}
	final := filepath.Join(s.dir, fmt.Sprintf("seg-%08d-%016x%s", s.seq, s.scope, segSuffix))
	if err := recordio.WriteFileAtomic(final, buf); err != nil {
		return 0, fmt.Errorf("cachestore: publishing segment: %w", err)
	}

	n := len(s.dirty)
	for _, key := range s.dirty {
		s.isDir[key] = true
	}
	s.dirty = s.dirty[:0]
	s.seq++
	s.stats.FlushedEntries += int64(n)
	s.stats.BytesOnDisk += int64(len(buf))
	return n, nil
}

// PutFloat64 stores a scalar measurement value (8 bytes, little-endian
// IEEE-754 bits) — the encoding used to persist parallel.MemoCache
// entries.
func (s *Store) PutFloat64(key uint64, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	s.Put(key, b[:])
}

// GetFloat64 returns the scalar value for key; ok is false when the key is
// absent or not 8 bytes wide.
func (s *Store) GetFloat64(key uint64) (float64, bool) {
	raw, ok := s.Get(key)
	if !ok || len(raw) != 8 {
		return 0, false
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw)), true
}

// RangeFloat64 calls fn for every 8-byte entry, decoded as a float64.
func (s *Store) RangeFloat64(fn func(key uint64, v float64) bool) {
	s.Range(func(key uint64, value []byte) bool {
		if len(value) != 8 {
			return true
		}
		return fn(key, math.Float64frombits(binary.LittleEndian.Uint64(value)))
	})
}
