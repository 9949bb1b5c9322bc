package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// hostBuckets are the layers a CPU profile's self time is split into, named
// after the module's packages. Every sample lands in exactly one bucket, so
// the shares sum to 1.
var hostBuckets = []string{
	"exec", "exec.parallel", "hw.cache", "hw.branch", "hw.cpu", "hw.pmu",
	"core", "costmodel", "service", "storage", "columnar", "trace",
	"tpch", "datagen", "stats", "progopt", "bench", "runtime.gc", "other",
}

// bucketOf maps a profiled function (its full Go name and source file) to
// its host_share bucket.
func bucketOf(funcName, file string) string {
	pkg := packageOf(funcName)
	switch {
	case pkg == "progopt":
		return "progopt"
	case pkg == "main":
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime.gc"
	case strings.HasPrefix(pkg, "progopt/internal/"):
		b := strings.ReplaceAll(strings.TrimPrefix(pkg, "progopt/internal/"), "/", ".")
		if b == "exec" && strings.HasSuffix(file, "internal/exec/parallel.go") {
			return "exec.parallel"
		}
		for _, k := range hostBuckets {
			if k == b {
				return b
			}
		}
	}
	return "other"
}

// packageOf extracts the import path from a Go symbol such as
// "progopt/internal/hw/cache.(*Level).findWay".
func packageOf(funcName string) string {
	slash := strings.LastIndexByte(funcName, '/')
	dot := strings.IndexByte(funcName[slash+1:], '.')
	if dot < 0 {
		return funcName
	}
	return funcName[:slash+1+dot]
}

// hostSplit is a CPU profile's self time split by bucket.
type hostSplit struct {
	Shares  map[string]float64
	Samples int64
}

// splitProfile decodes a gzipped pprof CPU profile and attributes each
// sample to the bucket of its innermost frame (self time, inlined frames
// included, as pprof's -top does).
func splitProfile(gz []byte) (hostSplit, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return hostSplit{}, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return hostSplit{}, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return hostSplit{}, err
	}
	counts := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0] // sample_type[0] of a Go CPU profile is samples/count
		b := "other"
		if len(s.locs) > 0 {
			if loc, ok := p.locs[s.locs[0]]; ok && loc.fn != 0 {
				fn := p.funcs[loc.fn]
				b = bucketOf(p.str(fn.name), p.str(fn.file))
			}
		}
		counts[b] += n
		total += n
	}
	out := hostSplit{Shares: make(map[string]float64, len(hostBuckets)), Samples: total}
	sum := 0.0
	for _, b := range hostBuckets {
		out.Shares[b] = ratio(float64(counts[b]), float64(total))
		sum += out.Shares[b]
	}
	if total > 0 && math.Abs(sum-1) > 1e-9 {
		return out, fmt.Errorf("profile: host shares sum to %v, not 1", sum)
	}
	return out, nil
}

// profile holds the parts of a pprof Profile message the split needs.
type profile struct {
	samples []pSample
	locs    map[uint64]pLoc
	funcs   map[uint64]pFunc
	strs    []string
}

type pSample struct {
	locs   []uint64
	values []int64
}

// pLoc keeps a location's first line: the innermost function when several
// were inlined into it.
type pLoc struct{ fn uint64 }

type pFunc struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// decodeProfile parses the protobuf wire format of profile.proto: samples
// (field 2), locations (4), functions (5) and the string table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: make(map[uint64]pLoc), funcs: make(map[uint64]pFunc)}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s pSample
			err := eachField(sub, func(n int, v uint64, sub []byte) error {
				switch n {
				case 1:
					ids, err := varints(v, sub)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vals, err := varints(v, sub)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var loc pLoc
			err := eachField(sub, func(n int, v uint64, sub []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && loc.fn == 0:
					return eachField(sub, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							loc.fn = v
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = loc
			return err
		case 5:
			var id uint64
			var fn pFunc
			err := eachField(sub, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			p.funcs[id] = fn
			return err
		case 6:
			p.strs = append(p.strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling f with each field's number
// and either its varint value (sub == nil) or its length-delimited payload.
func eachField(b []byte, f func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var sub []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(int(key>>3), v, sub); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated varint field's values: the single value v when
// the field was not packed, else every varint in the payload.
func varints(v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		packed = packed[n:]
	}
	return out, nil
}
