package runstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/proptest"
)

// genRecord draws a random but well-formed record: arbitrary manifest
// strings, flag maps and artifact bytes (any of which may be empty).
func genRecord(pt *proptest.T) *Record {
	const ident = "abcdefghijklmnopqrstuvwxyz-_0123456789"
	flags := map[string]string(nil)
	if n := pt.Intn(4); n > 0 {
		flags = make(map[string]string, n)
		for i := 0; i < n; i++ {
			flags[pt.String(ident, 12)] = pt.String(ident, 12)
		}
	}
	rec := &Record{
		Manifest: Manifest{
			Version:     FormatVersion,
			Flow:        pt.String(ident, 16),
			Seed:        pt.Int64Range(-1<<40, 1<<40),
			Flags:       flags,
			CacheWarmth: []string{"", "none", "cold", "warm"}[pt.Intn(4)],
			TraceDigest: pt.String("0123456789abcdef:fnv", 24),
		},
		Report:  pt.Bytes(200),
		Metrics: pt.Bytes(200),
		Bench:   pt.Bytes(100),
		Trace:   pt.Bytes(400),
	}
	pt.Logf("record: flow=%q seed=%d flags=%v report=%d metrics=%d bench=%d trace=%d bytes",
		rec.Manifest.Flow, rec.Manifest.Seed, rec.Manifest.Flags,
		len(rec.Report), len(rec.Metrics), len(rec.Bench), len(rec.Trace))
	return rec
}

// TestRecordRoundTripClosure: Decode(Encode(r)) reproduces the record, and
// re-encoding the decoded record reproduces the exact bytes (encode∘decode
// is the identity on the wire format).
func TestRecordRoundTripClosure(t *testing.T) {
	proptest.Check(t, 200, func(pt *proptest.T) {
		rec := genRecord(pt)
		enc, err := rec.Encode()
		if err != nil {
			pt.Fatalf("Encode: %v", err)
		}
		dec, err := Decode(enc, "prop.run")
		if err != nil {
			pt.Fatalf("Decode: %v", err)
		}
		if dec.Manifest.Flow != rec.Manifest.Flow || dec.Manifest.Seed != rec.Manifest.Seed ||
			dec.Manifest.CacheWarmth != rec.Manifest.CacheWarmth ||
			dec.Manifest.TraceDigest != rec.Manifest.TraceDigest {
			pt.Fatalf("manifest changed in round trip: %+v vs %+v", dec.Manifest, rec.Manifest)
		}
		if len(dec.Manifest.Flags) != len(rec.Manifest.Flags) {
			pt.Fatalf("flag map changed: %v vs %v", dec.Manifest.Flags, rec.Manifest.Flags)
		}
		for k, v := range rec.Manifest.Flags {
			if dec.Manifest.Flags[k] != v {
				pt.Fatalf("flag %q changed: %q vs %q", k, dec.Manifest.Flags[k], v)
			}
		}
		for _, pair := range [][2][]byte{
			{dec.Report, rec.Report}, {dec.Metrics, rec.Metrics},
			{dec.Bench, rec.Bench}, {dec.Trace, rec.Trace},
		} {
			if !bytes.Equal(pair[0], pair[1]) {
				pt.Fatalf("artifact bytes changed in round trip")
			}
		}
		re, err := dec.Encode()
		if err != nil {
			pt.Fatalf("re-Encode: %v", err)
		}
		if !bytes.Equal(re, enc) {
			pt.Fatalf("encode∘decode not the identity on the bytes")
		}
	})
}

// TestRecordTruncationAlwaysErrors: every strict prefix of a valid encoding
// fails to decode — no truncation is silently accepted.
func TestRecordTruncationAlwaysErrors(t *testing.T) {
	proptest.Check(t, 120, func(pt *proptest.T) {
		rec := genRecord(pt)
		enc, err := rec.Encode()
		if err != nil {
			pt.Fatalf("Encode: %v", err)
		}
		cut := pt.Intn(len(enc)) // strict prefix: 0 .. len-1
		pt.Logf("truncate %d -> %d bytes", len(enc), cut)
		if _, err := Decode(enc[:cut], "trunc.run"); err == nil {
			pt.Fatalf("Decode accepted a %d-byte truncation of a %d-byte record", cut, len(enc))
		}
	})
}

// TestRecordCorruptionAlwaysErrors: flipping any single byte of a valid
// encoding fails the decode — the CRC (or the magic/length checks) catches
// every one-byte corruption.
func TestRecordCorruptionAlwaysErrors(t *testing.T) {
	proptest.Check(t, 120, func(pt *proptest.T) {
		rec := genRecord(pt)
		enc, err := rec.Encode()
		if err != nil {
			pt.Fatalf("Encode: %v", err)
		}
		pos := pt.Intn(len(enc))
		flip := byte(pt.IntRange(1, 255))
		pt.Logf("flip byte %d of %d with 0x%02x", pos, len(enc), flip)
		mut := bytes.Clone(enc)
		mut[pos] ^= flip
		if _, err := Decode(mut, "corrupt.run"); err == nil {
			pt.Fatalf("Decode accepted a single-byte corruption at offset %d", pos)
		}
	})
}

// TestRunIDDeterministicAndSensitive: the content address is a pure function
// of (manifest, trace) — identical inputs always produce identical IDs, and
// changing the seed, a flag value or one trace byte always changes the ID.
func TestRunIDDeterministicAndSensitive(t *testing.T) {
	proptest.Check(t, 150, func(pt *proptest.T) {
		rec := genRecord(pt)
		id1, err := rec.ID()
		if err != nil {
			pt.Fatalf("ID: %v", err)
		}
		if !ValidID(id1) {
			pt.Fatalf("minted invalid id %q", id1)
		}
		clone := &Record{Manifest: rec.Manifest, Trace: bytes.Clone(rec.Trace)}
		id2, err := clone.ID()
		if err != nil {
			pt.Fatalf("clone ID: %v", err)
		}
		if id1 != id2 {
			pt.Fatalf("identical inputs minted different ids %s / %s", id1, id2)
		}

		seedBumped := rec.Manifest
		seedBumped.Seed++
		idSeed, err := RunID(seedBumped, rec.Trace)
		if err != nil {
			pt.Fatalf("seed-bumped ID: %v", err)
		}
		if idSeed == id1 {
			pt.Fatalf("seed change did not change the id")
		}

		if len(rec.Trace) > 0 {
			mut := bytes.Clone(rec.Trace)
			mut[pt.Intn(len(mut))] ^= byte(pt.IntRange(1, 255))
			idTrace, err := RunID(rec.Manifest, mut)
			if err != nil {
				pt.Fatalf("trace-mutated ID: %v", err)
			}
			if idTrace == id1 {
				pt.Fatalf("trace byte change did not change the id")
			}
		}
	})
}

// TestRecordBytesPinned: the record encoding of a fixed record is pinned
// by length and SHA-256. Run IDs, ledger files and cross-process record
// comparisons all rest on these bytes, so a framing change must show here.
func TestRecordBytesPinned(t *testing.T) {
	rec := &Record{
		Manifest: Manifest{
			Version: FormatVersion, Flow: "characterize", Seed: 5,
			Flags:       map[string]string{"learn-tests": "120", "parameter": "tdq"},
			CacheWarmth: "cold", TraceDigest: "fnv1a:0123456789abcdef",
		},
		Report:  []byte(`{"total":{"measurements":42,"vectors":7,"sim_time_sec":0.5}}`),
		Metrics: []byte(`{"counters":{"ate.measurements":42}}`),
		Trace:   []byte("{\"ev\":\"a\"}\n{\"ev\":\"b\"}\n"),
	}
	enc, err := rec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	const wantLen, wantSHA = 320, "ffe49522326298b233aee2de7dfe0a4fdb88d136e2fe30c7fb85cdf06222aca5"
	if sum := sha256.Sum256(enc); len(enc) != wantLen || hex.EncodeToString(sum[:]) != wantSHA {
		t.Fatalf("record encoding moved: %d bytes, sha256 %x; want %d bytes, %s", len(enc), sum, wantLen, wantSHA)
	}
}

// FuzzRunRecordDecode: Decode never panics, and every record it accepts
// re-encodes to exactly the input bytes.
func FuzzRunRecordDecode(f *testing.F) {
	enc, err := testRecord(1, "{\"ev\":\"x\"}\n").Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(enc[:len(enc)-3])
	f.Add([]byte(recordMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Decode(data, "fuzz.run")
		if err != nil {
			return
		}
		again, err := rec.Encode()
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-encoding differs from the accepted input:\n got %q\nwant %q", again, data)
		}
	})
}
