package engine

import (
	"bytes"
	"testing"

	"cachedarrays/internal/models"
	"cachedarrays/internal/units"
)

// TestJSONWorkloadRunsIdentically loads a model through the JSON workload
// format and verifies the engine produces the same result as the in-memory
// original — the custom-trace path is a first-class citizen.
func TestJSONWorkloadRunsIdentically(t *testing.T) {
	orig := models.MLP(2048, []int{4096, 2048}, 100, 256)
	var buf bytes.Buffer
	if err := orig.SaveJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := models.LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Iterations: 2, FastCapacity: 64 * units.MB, SlowCapacity: 8 * units.GB}
	a, err := Run(orig, "CA:LM", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(loaded, "CA:LM", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.IterTime != b.IterTime || a.Slow.WriteBytes != b.Slow.WriteBytes {
		t.Fatalf("JSON round trip changed behaviour: %.6f/%d vs %.6f/%d",
			a.IterTime, a.Slow.WriteBytes, b.IterTime, b.Slow.WriteBytes)
	}
}

// TestTraceEventsrecorded verifies the engine surfaces the event tail.
func TestTraceEventsRecorded(t *testing.T) {
	m := models.MLP(2048, []int{4096}, 100, 256)
	r, err := Run(m, "CA:LM", Config{
		Iterations: 1, FastCapacity: 32 * units.MB, SlowCapacity: units.GB,
		TraceEvents: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Events) == 0 || len(r.Events) > 32 {
		t.Fatalf("events = %d", len(r.Events))
	}
	for _, e := range r.Events {
		if e.String() == "" {
			t.Fatal("unrenderable event")
		}
	}
}

// TestAllocatorConfigErrors verifies unknown allocators fail fast.
func TestAllocatorConfigErrors(t *testing.T) {
	m := models.MLP(16, []int{8}, 2, 4)
	if _, err := Run(m, "CA:LM", Config{Iterations: 1, Allocator: "slab"}); err == nil {
		t.Error("unknown allocator accepted")
	}
	// Buddy works end to end.
	if _, err := Run(m, "CA:LM", Config{
		Iterations: 1, Allocator: "buddy",
		FastCapacity: 64 * units.MB, SlowCapacity: units.GB, CheckInvariants: true,
	}); err != nil {
		t.Errorf("buddy allocator run failed: %v", err)
	}
}
