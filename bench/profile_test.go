package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb builds protobuf messages for the fixtures.
type pb struct{ b []byte }

func (m *pb) varint(num int, v uint64) *pb {
	m.b = binary.AppendUvarint(m.b, uint64(num)<<3)
	m.b = binary.AppendUvarint(m.b, v)
	return m
}

func (m *pb) bytes(num int, v []byte) *pb {
	m.b = binary.AppendUvarint(m.b, uint64(num)<<3|2)
	m.b = binary.AppendUvarint(m.b, uint64(len(v)))
	m.b = append(m.b, v...)
	return m
}

func (m *pb) msg(num int, sub *pb) *pb { return m.bytes(num, sub.b) }

// packed writes a repeated integer field packed, as the Go runtime does
// for runs longer than two.
func (m *pb) packed(num int, vs ...uint64) *pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return m.bytes(num, body)
}

// fixture is a CPU profile with fixed stacks (leaf first). Function ids
// index funcs from 1; location ids index locs from 1, each location
// listing its function ids innermost first (several = inlined calls).
type fixtureSample struct {
	locs []uint64
	ns   int64
}

func buildFixture(t *testing.T, funcs []string, locs [][]uint64, samples []fixtureSample) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	p := &pb{}
	p.msg(fieldSampleType, (&pb{}).varint(fieldValueTypeType, 1).varint(fieldValueTypeUnit, 2))
	p.msg(fieldSampleType, (&pb{}).varint(fieldValueTypeType, 3).varint(fieldValueTypeUnit, 4))
	for _, s := range samples {
		sp := &pb{}
		if len(s.locs) > 2 {
			sp.packed(fieldSampleLocation, s.locs...)
		} else {
			for _, l := range s.locs {
				sp.varint(fieldSampleLocation, l)
			}
		}
		sp.varint(fieldSampleValue, uint64(s.ns/1e7)).varint(fieldSampleValue, uint64(s.ns))
		p.msg(fieldSample, sp)
	}
	for i, fns := range locs {
		lp := (&pb{}).varint(fieldLocationID, uint64(i+1)).varint(3, 0x1000+uint64(i))
		for _, fn := range fns {
			lp.msg(fieldLocationLine, (&pb{}).varint(fieldLineFunction, fn).varint(2, 10))
		}
		p.msg(fieldLocation, lp)
	}
	for i, name := range funcs {
		strs = append(strs, name)
		p.msg(fieldFunction, (&pb{}).varint(fieldFunctionID, uint64(i+1)).varint(fieldFunctionName, uint64(len(strs)-1)))
	}
	for _, s := range strs {
		p.bytes(fieldStringTable, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAttributeFixture(t *testing.T) {
	funcs := []string{
		"sort.Slice", // 1
		"cachedarrays/internal/pagemig.(*Migrator).Epoch", // 2
		"cachedarrays/internal/engine.(*Stepper).Step",    // 3
		"runtime.mallocgc", // 4
		"cachedarrays/internal/twolm.(*Cache).runLines",    // 5
		"runtime.gcBgMarkWorker",                           // 6
		"main.runSuite",                                    // 7
		"cachedarrays/internal/sched.Key",                  // 8
		"cachedarrays/internal/models.SaveJSON.func1",      // 9
		"cachedarrays/internal/dm.(*Manager).Copy[...]",    // 10
		"cachedarrays/internal/engine.NewStepper.func2.1",  // 11
		"internal/runtime/maps.(*Map).getWithKeySmall",     // 12
		"cachedarrays/internal/metrics.(*Registry).Tick",   // 13
		"cachedarrays/internalx/fake.Func",                 // 14: not a module
		"cachedarrays/internal/cluster.simulateQueued",     // 15
		"cachedarrays/internal/metrics/sub.Helper",         // 16: nested package
		"cachedarrays/internal/gcsim.(*Collector).Collect", // 17
	}
	locs := [][]uint64{
		{1},      // 1: sort.Slice
		{2},      // 2: Epoch
		{3},      // 3: Step
		{4},      // 4: mallocgc
		{5},      // 5: runLines
		{6},      // 6: gcBgMarkWorker
		{7},      // 7: main.runSuite
		{9, 8},   // 8: SaveJSON closure inlined into sched.Key: innermost is models
		{10},     // 9: dm generic
		{12, 11}, // 10: map lookup inlined into an engine closure
		{13},     // 11: Registry.Tick
		{14},     // 12: not a module
		{15},     // 13: cluster dispatch
		{16},     // 14: nested package under metrics
		{4, 17},  // 15: mallocgc inlined into gcsim
	}
	samples := []fixtureSample{
		{[]uint64{1, 2, 3, 7}, 40e6}, // sort under pagemig → pagemig
		{[]uint64{4, 5, 3, 7}, 30e6}, // malloc under twolm → twolm
		{[]uint64{6}, 20e6},          // background GC → runtime
		{[]uint64{7}, 10e6},          // benchmark code only → runtime
		{[]uint64{4, 8, 7}, 50e6},    // malloc under the inlined SaveJSON → models
		{[]uint64{9, 3}, 10e6},       // generic dm frame → dm
		{[]uint64{10, 13}, 10e6},     // inlined map lookup → engine, not cluster
		{[]uint64{11, 13}, 60e6},     // Tick under dispatch → metrics
		{[]uint64{12, 4}, 10e6},      // no module frame → runtime
		{[]uint64{14}, 10e6},         // nested package → its module
		{[]uint64{15, 3}, 10e6},      // inlined runtime leaf → gcsim
		{[]uint64{2}, 0},             // zero-valued sample
		{nil, 10e6},                  // empty stack → runtime
	}
	a, err := attribute(buildFixture(t, funcs, locs, samples))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"pagemig": 0.04, "twolm": 0.03, "runtime": 0.05, "models": 0.05,
		"dm": 0.01, "engine": 0.01, "metrics": 0.07, "gcsim": 0.01,
	}
	if len(a.Seconds) != len(want) {
		t.Errorf("layers = %v, want %v", a.Seconds, want)
	}
	for k, v := range want {
		if math.Abs(a.Seconds[k]-v) > 1e-12 {
			t.Errorf("%s = %v s, want %v s", k, a.Seconds[k], v)
		}
	}
	if math.Abs(a.Total-0.27) > 1e-12 {
		t.Errorf("total = %v s, want 0.27 s", a.Total)
	}
	assertSumsToTotal(t, a)
}

func assertSumsToTotal(t *testing.T, a attribution) {
	t.Helper()
	var sum float64
	for _, v := range a.Seconds {
		sum += v
	}
	if math.Abs(sum-a.Total) > 1e-9*math.Max(1, a.Total) {
		t.Errorf("layers sum to %v s, profile total %v s", sum, a.Total)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"cachedarrays/internal/pagemig.(*Migrator).Epoch": "pagemig",
		"cachedarrays/internal/sched.Key":                 "sched",
		"cachedarrays/internal/metrics/sub.F":             "metrics",
		"cachedarrays/internal/dm.F[...]":                 "dm",
		"cachedarrays/internal":                           "",
		"cachedarrays.Run":                                "",
		"main.main":                                       "",
		"sort.Slice":                                      "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestAttributeRuntimeProfile decodes a real profile written by
// runtime/pprof: every sample lies outside the modules, so all of it is
// charged to the runtime layer.
func TestAttributeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x ^= i * i
		}
	}
	pprof.StopCPUProfile()
	sink = x
	a, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.Total <= 0 {
		t.Skip("no samples taken")
	}
	if len(a.Seconds) != 1 || a.Seconds[runtimeLayer] != a.Total {
		t.Errorf("attribution = %v, want everything on %s", a.Seconds, runtimeLayer)
	}
	assertSumsToTotal(t, a)
}

var sink int

func TestAttributeRejectsGarbage(t *testing.T) {
	if _, err := attribute([]byte("not a profile")); err == nil {
		t.Error("attribute accepted bytes that are not gzip")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x0a, 0xff}) // field 1, length longer than the message
	zw.Close()
	if _, err := attribute(buf.Bytes()); err == nil {
		t.Error("attribute accepted a truncated message")
	}
}
