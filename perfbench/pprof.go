package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes, so CPU shares can be attributed with the standard library alone.
// It keeps only what bucketing needs: each sample's stack of function
// names (leaf first, inlined frames expanded) and its CPU time.

// stackSample is one profile sample: its frames, leaf first, and weight.
type stackSample struct {
	frames []string
	weight int64
}

// protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

type pbReader struct{ b []byte }

func (p *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, io.ErrUnexpectedEOF
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// field reads the next tag; for length-delimited fields data holds the
// payload, for varints val holds the value.
func (p *pbReader) field() (num int, wire int, val uint64, data []byte, err error) {
	tag, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(tag>>3), int(tag&7)
	switch wire {
	case wireVarint:
		val, err = p.varint()
	case wireI64:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[8:]
	case wireI32:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, io.ErrUnexpectedEOF
		}
		p.b = p.b[4:]
	case wireBytes:
		var n uint64
		n, err = p.varint()
		if err == nil && n > uint64(len(p.b)) {
			err = io.ErrUnexpectedEOF
		}
		if err == nil {
			data, p.b = p.b[:n], p.b[n:]
		}
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wire)
	}
	return num, wire, val, data, err
}

// packedOrSingle appends a repeated integer field that may be packed.
func packedOrSingle(dst []uint64, wire int, val uint64, data []byte) ([]uint64, error) {
	if wire == wireVarint {
		return append(dst, val), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// parseProfile decodes a gzipped (or raw) CPU profile into stack samples.
// The weight is the "cpu" sample value when present, else the last one.
func parseProfile(raw []byte) ([]stackSample, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		sampleTypes []uint64 // string index of each value's type
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location → function ids, leaf first
		funcNames   = map[uint64]uint64{}   // function → name string index
		strs        []string
	)
	p := pbReader{raw}
	for len(p.b) > 0 {
		num, _, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			vt := pbReader{data}
			for len(vt.b) > 0 {
				n, _, v, _, err := vt.field()
				if err != nil {
					return nil, err
				}
				if n == 1 {
					sampleTypes = append(sampleTypes, v)
				}
			}
		case 2: // sample
			var s rawSample
			sr := pbReader{data}
			for len(sr.b) > 0 {
				n, w, v, d, err := sr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = packedOrSingle(s.locs, w, v, d)
				case 2:
					s.values, err = packedOrSingle(s.values, w, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			lr := pbReader{data}
			for len(lr.b) > 0 {
				n, _, v, d, err := lr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // line
					ln := pbReader{d}
					for len(ln.b) > 0 {
						m, _, fv, _, err := ln.field()
						if err != nil {
							return nil, err
						}
						if m == 1 {
							funcs = append(funcs, fv)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 5: // function
			var id, name uint64
			fr := pbReader{data}
			for len(fr.b) > 0 {
				n, _, v, _, err := fr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	valueIdx := len(sampleTypes) - 1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			valueIdx = i
		}
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				frames = append(frames, str(funcNames[fn]))
			}
		}
		out = append(out, stackSample{frames: frames, weight: int64(s.values[valueIdx])})
	}
	return out, nil
}

// cpuLayers are the program's packages whose self CPU share is reported as
// cpu.<name>, by the leaf frame's package under repro/internal/.
var cpuLayers = []string{
	"dut", "ate", "testgen", "search", "neural", "genetic", "parallel",
	"core", "shmoo", "jobs", "runstore", "cachestore", "telemetry",
}

// cpuHotSpots are the cumulative shares: a sample counts when any frame of
// its stack starts with the prefix.
var cpuHotSpots = []struct{ name, prefix string }{
	{"cpu.cum.dut_execute", "repro/internal/dut.(*Memory).Execute"},
	{"cpu.cum.dut_decode", "repro/internal/dut.Geometry.Decode"},
	{"cpu.cum.dut_wafer", "repro/internal/dut.(*WaferLot)."},
	{"cpu.cum.testgen_fingerprint", "repro/internal/testgen.Test.Fingerprint"},
	{"cpu.cum.testgen_features", "repro/internal/testgen.ExtractFeatures"},
	{"cpu.cum.ate_load", "repro/internal/ate.(*ATE).load"},
}

// gcFrames mark a sample as garbage-collector work wherever they appear.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.gcAssistAlloc1": true,
	"runtime.gcDrain": true, "runtime.gcDrainN": true, "runtime.scanobject": true,
	"runtime.markroot": true, "runtime.bgsweep": true, "runtime.sweepone": true,
	"runtime.bgscavenge": true, "runtime.gcStart": true, "runtime.gcMarkTermination": true,
}

// funcPackage returns the import path of a symbol name such as
// "repro/internal/dut.(*Memory).ExecuteObserved" or "runtime.memmove".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic type arguments may hold slashes
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// selfBucket names the bucket a sample's self time belongs to, "" when
// none: runtime and library buckets first, then the leaf's layer.
func selfBucket(frames []string) string {
	if len(frames) == 0 {
		return ""
	}
	for _, f := range frames {
		if gcFrames[f] {
			return "cpu.runtime_gc"
		}
	}
	leaf := frames[0]
	pkg := funcPackage(leaf)
	switch {
	case pkg == "math/rand" && strings.Contains(strings.ToLower(leaf), "seed"):
		return "cpu.rand_seed"
	case leaf == "runtime.memmove" || leaf == "runtime.duffcopy" || leaf == "runtime.duffzero":
		return "cpu.runtime_copy"
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "runtime/internal/syscall" ||
		leaf == "runtime.futex" || leaf == "runtime.epollwait" || leaf == "runtime.write1" || leaf == "runtime.read":
		return "cpu.syscall"
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		layer, _, _ := strings.Cut(rest, "/")
		for _, l := range cpuLayers {
			if l == layer {
				return "cpu." + l
			}
		}
	}
	return ""
}

// cpuShareNames lists every cpu.* metric bucketSamples reports.
func cpuShareNames() []string {
	names := make([]string, 0, len(cpuLayers)+4+len(cpuHotSpots))
	for _, l := range cpuLayers {
		names = append(names, "cpu."+l)
	}
	names = append(names, "cpu.rand_seed", "cpu.runtime_gc", "cpu.runtime_copy", "cpu.syscall")
	for _, h := range cpuHotSpots {
		names = append(names, h.name)
	}
	return names
}

// bucketSamples turns samples into shares of total CPU time: self shares
// by bucket and cumulative shares of the named hot spots. Every name of
// cpuShareNames is present, 0 when no sample landed in it.
func bucketSamples(samples []stackSample) map[string]float64 {
	shares := map[string]float64{}
	for _, n := range cpuShareNames() {
		shares[n] = 0
	}
	var total float64
	for _, s := range samples {
		w := float64(s.weight)
		total += w
		if b := selfBucket(s.frames); b != "" {
			shares[b] += w
		}
		for _, h := range cpuHotSpots {
			for _, f := range s.frames {
				if strings.HasPrefix(f, h.prefix) {
					shares[h.name] += w
					break
				}
			}
		}
	}
	for n := range shares {
		shares[n] = ratio(shares[n], total)
	}
	return shares
}
