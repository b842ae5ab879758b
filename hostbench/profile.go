package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the repository modules the CPU profile is folded into, in
// report order. Repo frames outside them (the experiment harness, arp,
// udp, icmp, this benchmark) fold into "other"; samples with no repo
// frame at all (GC workers, the scheduler) count as "runtime".
var layers = []string{
	"sim", "netem", "eth", "ip", "netstack", "tcp", "serial", "hb",
	"sttcp", "cluster", "app", "trace", "telemetry", "metrics",
}

const (
	layerOther   = "other"
	layerRuntime = "runtime"
	repoPrefix   = "repro/internal/"
)

// allLayers is layers plus the two catch-all buckets.
func allLayers() []string { return append(append([]string{}, layers...), layerOther, layerRuntime) }

// layerShares folds a CPU profile by module. self[m] is the share of
// samples whose innermost repo frame belongs to m; total[m] the share
// with m anywhere on the stack. Every runtime stack starts in
// runtime.main or runtime.goexit, so total["runtime"] is instead the
// share of samples whose leaf frame is in package runtime (allocation,
// GC, memmove, map operations), wherever it was called from.
type layerShares struct {
	samples     int64
	self, total map[string]float64
	// gc is the share of samples in the garbage collector: background
	// marking and sweeping, mark assists and write barriers.
	gc float64
}

// gcFramePrefixes identify garbage-collector frames.
var gcFramePrefixes = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone",
}

func isGCFrame(fn string) bool {
	for _, p := range gcFramePrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// layerOf maps a symbolized function name to its layer, "" for frames
// outside the repository.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return layerOther
	}
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		if strings.HasPrefix(fn, "repro/") {
			return layerOther
		}
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return layerOther
}

// foldProfile decodes a gzipped pprof CPU profile (as written by
// runtime/pprof) and folds its samples by layer.
//
// The profile is decoded here, from the few profile.proto fields the
// folding needs, rather than by running `go tool pprof -traces` on it:
// the traced run and the package test then need no toolchain at run
// time and start no subprocess, and the folding reads the profile's
// sample stacks directly instead of a text report meant for people.
func foldProfile(gz []byte) (layerShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return layerShares{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return layerShares{}, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return layerShares{}, err
	}
	funcName := map[uint64]string{}
	for id, nameIdx := range p.funcs {
		if nameIdx >= 0 && int(nameIdx) < len(p.strings) {
			funcName[id] = p.strings[nameIdx]
		}
	}
	sh := layerShares{self: map[string]float64{}, total: map[string]float64{}}
	self, total := map[string]int64{}, map[string]int64{}
	var gc int64
	for _, s := range p.samples {
		seen := map[string]bool{}
		innermost := ""
		inGC := false
		leaf := true
		// Locations run leaf first; within a location, inlined frames
		// run innermost first.
		for _, loc := range s.locs {
			for _, fid := range p.locs[loc] {
				name := funcName[fid]
				if strings.HasPrefix(name, "runtime.") {
					seen[layerRuntime] = seen[layerRuntime] || leaf
					inGC = inGC || isGCFrame(name)
				}
				leaf = false
				l := layerOf(name)
				if l == "" {
					continue
				}
				if innermost == "" {
					innermost = l
				}
				seen[l] = true
			}
		}
		if innermost == "" {
			innermost = layerRuntime
			seen[layerRuntime] = true
		}
		self[innermost] += s.count
		if inGC {
			gc += s.count
		}
		for l, on := range seen {
			if on {
				total[l] += s.count
			}
		}
		sh.samples += s.count
	}
	if sh.samples == 0 {
		return sh, errors.New("profile: no samples")
	}
	for _, l := range allLayers() {
		sh.self[l] = float64(self[l]) / float64(sh.samples)
		sh.total[l] = float64(total[l]) / float64(sh.samples)
	}
	sh.gc = float64(gc) / float64(sh.samples)
	return sh, nil
}

// rawProfile is the subset of profile.proto the folding needs.
type rawProfile struct {
	samples []rawSample
	locs    map[uint64][]uint64 // location id → function ids, innermost first
	funcs   map[uint64]int64    // function id → name string index
	strings []string
}

type rawSample struct {
	locs  []uint64
	count int64
}

// Field numbers of profile.proto.
const (
	fieldProfileSample   = 2
	fieldProfileLocation = 4
	fieldProfileFunction = 5
	fieldProfileStrings  = 6

	fieldSampleLocation = 1
	fieldSampleValue    = 2

	fieldLocationID   = 1
	fieldLocationLine = 4
	fieldLineFunction = 1

	fieldFunctionID   = 1
	fieldFunctionName = 2
)

func decodeProfile(b []byte) (*rawProfile, error) {
	p := &rawProfile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case fieldProfileSample:
			var s rawSample
			var values []uint64
			err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case fieldSampleLocation:
					return appendPacked(&s.locs, w, v, m)
				case fieldSampleValue:
					return appendPacked(&values, w, v, m)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
		case fieldProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case fieldLocationID:
					id = v
				case fieldLocationLine:
					return eachField(m, func(f, w int, v uint64, _ []byte) error {
						if f == fieldLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locs[id] = fns
		case fieldProfileFunction:
			var id uint64
			var name int64
			err := eachField(msg, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = name
		case fieldProfileStrings:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

// appendPacked appends one repeated varint field, packed or not.
func appendPacked(dst *[]uint64, wire int, v uint64, msg []byte) error {
	if wire == wireVarint {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

// eachField walks the top-level fields of one protobuf message. For
// varint fields v holds the value; for length-delimited fields msg holds
// the payload.
func eachField(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case wire64:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case wire32:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
