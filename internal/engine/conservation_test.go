package engine

import (
	"testing"

	"cachedarrays/internal/models"
	"cachedarrays/internal/units"
)

// TestByteConservation cross-checks the two independent accounting layers:
// the data manager's movement statistics must be consistent with the
// devices' traffic counters. Every fast->slow byte the manager moved is an
// NVRAM write by the copy engine; kernel writes add on top.
func TestByteConservation(t *testing.T) {
	m := models.DenseNet(264, 504)
	r, err := Run(m, "CA:LM", Config{Iterations: 2, FastCapacity: 60 * units.GB})
	if err != nil {
		t.Fatal(err)
	}
	var nvWrites, nvReads int64
	for _, it := range r.Iterations {
		nvWrites += it.Slow.WriteBytes
		nvReads += it.Slow.ReadBytes
	}
	// Copy-engine movement is a lower bound on device traffic (kernels
	// may add NVRAM-resident access on top).
	if r.DM.BytesFastToSlow > nvWrites {
		t.Errorf("manager moved %s fast->slow but NVRAM saw only %s of writes",
			units.Bytes(r.DM.BytesFastToSlow), units.Bytes(nvWrites))
	}
	if r.DM.BytesSlowToFast > nvReads {
		t.Errorf("manager moved %s slow->fast but NVRAM saw only %s of reads",
			units.Bytes(r.DM.BytesSlowToFast), units.Bytes(nvReads))
	}
	// Policy eviction bytes equal the manager's fast->slow movement plus
	// elided (copy-free) evictions; every eviction is one or the other.
	if r.Policy.EvictionBytes < r.DM.BytesFastToSlow {
		t.Errorf("eviction bytes %s below manager fast->slow movement %s",
			units.Bytes(r.Policy.EvictionBytes), units.Bytes(r.DM.BytesFastToSlow))
	}
}

// Test2LMIterationConsistency mirrors the paper's methodology check for
// the baseline: steady-state iterations must agree.
func Test2LMIterationConsistency(t *testing.T) {
	m := models.ResNet(200, 640)
	r, err := Run(m, "2LM:M", Config{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	base := r.Iterations[1].Time
	for i := 2; i < len(r.Iterations); i++ {
		d := r.Iterations[i].Time/base - 1
		if d < -0.05 || d > 0.05 {
			t.Errorf("iteration %d deviates %.1f%%", i, 100*d)
		}
	}
}

// TestResultStringReadable guards the human-facing summary line.
func TestResultStringReadable(t *testing.T) {
	m := models.MLP(64, []int{32}, 4, 8)
	r, err := Run(m, "CA:LM", Config{Iterations: 1,
		FastCapacity: units.GB, SlowCapacity: 4 * units.GB})
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	for _, want := range []string{"mlp", "CA:LM", "iter="} {
		if !containsStr(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
