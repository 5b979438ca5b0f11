package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"onoffchain/internal/keccak"
)

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb struct{ buf []byte }

func (m *pb) varint(num int, v uint64) *pb {
	m.buf = binary.AppendUvarint(m.buf, uint64(num)<<3)
	m.buf = binary.AppendUvarint(m.buf, v)
	return m
}

func (m *pb) bytes(num int, b []byte) *pb {
	m.buf = binary.AppendUvarint(m.buf, uint64(num)<<3|2)
	m.buf = binary.AppendUvarint(m.buf, uint64(len(b)))
	m.buf = append(m.buf, b...)
	return m
}

func (m *pb) packed(num int, vs ...uint64) *pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return m.bytes(num, body)
}

// syntheticProfile encodes a CPU profile whose samples are (stack, ns)
// pairs; a stack lists function names leaf first, and a name group
// joined in one location models inlining (innermost first).
func syntheticProfile(t *testing.T, samples []struct {
	stack [][]string
	ns    uint64
}) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	strIdx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p pb
	p.bytes(profSampleType, (&pb{}).varint(valueTypeType, strIdx("samples")).varint(valueTypeUnit, strIdx("count")).buf)
	p.bytes(profSampleType, (&pb{}).varint(valueTypeType, strIdx("cpu")).varint(valueTypeUnit, strIdx("nanoseconds")).buf)
	funcs := map[string]uint64{}
	locID := uint64(0)
	for _, s := range samples {
		var locs []uint64
		for _, frames := range s.stack {
			locID++
			loc := (&pb{}).varint(locationID, locID)
			for _, fn := range frames {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					p.bytes(profFunction, (&pb{}).varint(functionID, id).varint(functionName, strIdx(fn)).buf)
				}
				loc.bytes(locationLine, (&pb{}).varint(lineFunction, id).varint(2, 10).buf)
			}
			p.bytes(profLocation, loc.buf)
			locs = append(locs, locID)
		}
		p.bytes(profSample, (&pb{}).packed(sampleLocation, locs...).packed(sampleValue, 1, s.ns).buf)
	}
	for _, s := range strs {
		p.bytes(profStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.buf); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestCPUSharesSynthetic(t *testing.T) {
	const (
		secpAdd = "onoffchain/internal/secp256k1.(*Point).Add"
		worker  = "onoffchain/internal/hub.(*Hub).worker.func1"
		permute = "onoffchain/internal/keccak.permute"
		compile = "onoffchain/internal/lang.Compile" // not a named layer: "other"
		malloc  = "runtime.mallocgc"
		main    = "main.main"
	)
	type s = struct {
		stack [][]string
		ns    uint64
	}
	gz := syntheticProfile(t, []s{
		{[][]string{{secpAdd}, {worker}}, 30}, // innermost internal frame wins
		{[][]string{{malloc}, {worker}}, 20},  // runtime leaf, charged to its internal caller
		{[][]string{{malloc}, {main}}, 10},    // no internal frame at all
		{[][]string{{compile}, {main}}, 15},
		{[][]string{{permute, worker}}, 25}, // permute inlined into the worker
	})
	shares, err := cpuShares(gz)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"secp256k1": 0.30, "hub": 0.20, "runtime": 0.10, "other": 0.15, "keccak": 0.25}
	sum := 0.0
	for _, m := range cpuModules {
		sum += shares[m]
		if math.Abs(shares[m]-want[m]) > 1e-12 {
			t.Errorf("share[%s] = %g, want %g", m, shares[m], want[m])
		}
	}
	if len(shares) != len(cpuModules) {
		t.Errorf("got %d modules, want %d", len(shares), len(cpuModules))
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g", sum)
	}
}

// TestCPUSharesRealProfile folds a profile written by runtime/pprof, so
// the reader is checked against the encoder it must actually parse.
func TestCPUSharesRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	var h [32]byte
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			h = keccak.Sum256(h[:])
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, m := range cpuModules {
		sum += shares[m]
		// The loop runs only keccak; everything else it costs (GC, the
		// profiler, race-detector C code) has no internal frame.
		if m != "keccak" && m != "runtime" && shares[m] != 0 {
			t.Errorf("share[%s] = %g in a keccak spin loop", m, shares[m])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g", sum)
	}
	if shares["keccak"] == 0 {
		t.Errorf("no samples charged to keccak: %v", shares)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"onoffchain/internal/trie.(*Trie).Hash":       "trie",
		"onoffchain/internal/vm.run[...]":             "vm",
		"onoffchain/internal/abi.Pack":                "other",
		"onoffchain/perfbench.main":                   "",
		"runtime.gcBgMarkWorker":                      "",
		"onoffchain/internal/hub.(*Hub).worker.func1": "hub",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
