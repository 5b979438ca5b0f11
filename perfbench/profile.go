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

// cpuModules are the layers a CPU profile sample can be charged to: the
// repository's internal packages by name, "other" for any other internal
// package, and "runtime" for samples with no internal frame at all (the
// Go runtime, the garbage collector, the benchmark's own loop).
var cpuModules = []string{
	"secp256k1", "keccak", "vm", "state", "trie", "rlp", "uint256", "chain",
	"hybrid", "hub", "whisper", "store", "rollup", "federation", "telemetry",
	"other", "runtime",
}

const internalPrefix = "onoffchain/internal/"

// moduleOf names the layer a function belongs to, or "" when it is not
// one of the repository's internal packages.
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, m := range cpuModules[:len(cpuModules)-2] {
		if m == rest {
			return m
		}
	}
	return "other"
}

// cpuShares folds a gzipped pprof CPU profile into each module's share of
// the sampled CPU time. A sample goes to the innermost frame that belongs
// to an internal package (inlined frames included); samples without one
// go to "runtime". The shares of cpuModules sum to 1.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	// The CPU time is the sample value whose unit is nanoseconds (pprof
	// CPU profiles carry samples/count and cpu/nanoseconds).
	vi := -1
	for i, st := range p.sampleTypes {
		if p.str(st[1]) == "nanoseconds" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	weights := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		weights[m] = 0
	}
	var total float64
	for _, s := range p.samples {
		if vi >= len(s.values) {
			return nil, errors.New("profile: sample without a CPU value")
		}
		v := float64(s.values[vi])
		total += v
		weights[p.moduleOfStack(s.locations)] += v
	}
	if total == 0 {
		return nil, errors.New("profile: no CPU samples")
	}
	for m := range weights {
		weights[m] /= total
	}
	return weights, nil
}

func (p *profile) moduleOfStack(locs []uint64) string {
	for _, id := range locs { // leaf first
		for _, fid := range p.locations[id] { // innermost inlined frame first
			if m := moduleOf(p.str(p.functions[fid])); m != "" {
				return m
			}
		}
	}
	return "runtime"
}

// profile is the part of profile.proto the fold needs.
type profile struct {
	sampleTypes [][2]int64 // (type, unit) string-table indices
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type sample struct {
	locations []uint64
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto (github.com/google/pprof/proto).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1
	valueTypeUnit = 2

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, body []byte) error {
		switch num {
		case profSampleType:
			var st [2]int64
			err := eachField(body, func(num int, v uint64, _ []byte) error {
				switch num {
				case valueTypeType:
					st[0] = int64(v)
				case valueTypeUnit:
					st[1] = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, st)
			return err
		case profSample:
			var s sample
			err := eachField(body, func(num int, v uint64, packed []byte) error {
				switch num {
				case sampleLocation:
					return appendVarints(&s.locations, v, packed)
				case sampleValue:
					var vs []uint64
					if err := appendVarints(&vs, v, packed); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(body, func(num int, v uint64, line []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(body, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(body))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field's value: v for the
// unpacked form, or every varint in packed for the packed form.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

// eachField walks one protobuf message. fn receives the field number and,
// for varint fields, the value with a nil body; for length-delimited
// fields, a non-nil body. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			body := b[n : n+int(l)] // non-nil even when empty
			b = b[n+int(l):]
			if err := fn(num, 0, body); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
