package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the code must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func fakeBody() bodyReport {
	return bodyReport{
		WallS: 1, CPUS: 2, AllocMB: 3, PeakRSSMB: 4, Dispatches: 10,
		Host:   map[string]float64{"pagemig": 1, "runtime": 0.5, "newmodule": 0.25},
		HostS:  1.75,
		Spans:  []span{{Name: "cluster.run", StartS: 0, EndS: 1}},
		Counts: map[string]float64{"sched.cells": 1},
	}
}

// TestMetricsMatchBenchmarkJSON: a run emits exactly the metrics
// BENCHMARK.json declares, with the same units, traced and untraced.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	r := &benchRun{bodies: []bodyReport{fakeBody(), fakeBody(), fakeBody()}, setups: []float64{0.1}}
	compare := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: run emits %d metrics, BENCHMARK.json declares %d", kind, len(got), len(want))
		}
		for _, w := range want {
			m, ok := got[w.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s declared but not emitted", kind, w.Name)
			case m.Unit != w.Unit:
				t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", kind, w.Name, m.Unit, w.Unit)
			}
		}
	}
	compare("end_to_end", r.endToEnd(), spec.EndToEnd)
	r.traced = true
	compare("per_layer", r.perLayer(), spec.PerLayer)

	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := []string{"fleet", "paper-suite", "replay-warm"}; len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Errorf("workloads = %v, want %v", names, want)
	}
}

// TestPerLayerSumsToTotal: host time of modules outside the named layers
// lands in host.other_s, so the host metrics add up to host.total_s.
func TestPerLayerSumsToTotal(t *testing.T) {
	r := &benchRun{traced: true, bodies: []bodyReport{fakeBody(), fakeBody(), fakeBody()}}
	m := r.perLayer()
	var sum float64
	for _, l := range hostLayers {
		sum += m["host."+l+"_s"].Value
	}
	sum += m["host.other_s"].Value
	if sum != m["host.total_s"].Value || m["host.other_s"].Value != 0.25 {
		t.Errorf("host layers sum to %v (other %v), total %v", sum, m["host.other_s"].Value, m["host.total_s"].Value)
	}
	if got := m["cluster.ns_per_dispatch"].Value; got != 1e8 {
		t.Errorf("ns_per_dispatch = %v, want 1e8", got)
	}
}

func TestCheckCountsOutputs(t *testing.T) {
	r := &benchRun{}
	want := map[string]string{"a": "1", "b": "2"}
	r.check(&bodyReport{Outputs: map[string]string{"a": "1", "b": "2"}}, want)
	if r.attempted != 2 || r.failed != 0 {
		t.Fatalf("matching body: attempted %d failed %d", r.attempted, r.failed)
	}
	// A wrong digest and a missing output both fail; an unexpected
	// output is adopted as the reference later bodies must repeat.
	r.check(&bodyReport{Outputs: map[string]string{"a": "9", "c": "3"}}, want)
	if r.attempted != 5 || r.failed != 2 || want["c"] != "3" {
		t.Fatalf("mismatching body: attempted %d failed %d want %v", r.attempted, r.failed, want)
	}
	r.check(&bodyReport{Outputs: map[string]string{"a": "1", "b": "2", "c": "4"}}, want)
	if r.failed != 3 {
		t.Fatalf("a body not repeating the first: failed %d, want 3", r.failed)
	}

	r = &benchRun{}
	r.checkCounts(map[string]float64{"x": 1}, map[string]float64{"x": 1})
	r.checkCounts(map[string]float64{"x": 1}, map[string]float64{"x": 2})
	r.checkCounts(map[string]float64{"x": 1}, map[string]float64{"x": 1, "y": 0})
	if r.attempted != 3 || r.failed != 2 {
		t.Errorf("counts: attempted %d failed %d, want 3 and 2", r.attempted, r.failed)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1}, 2}, {[]float64{5, 1, 3}, 3}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
