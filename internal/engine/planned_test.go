package engine

import (
	"testing"

	"cachedarrays/internal/models"
	"cachedarrays/internal/planner"
	"cachedarrays/internal/policy"
	"cachedarrays/internal/units"
)

// TestPlannedCompetitiveOnCNNs reproduces the paper's §II concession: a
// static AutoTM-style plan performs comparably to the runtime policy on
// regular CNN workloads (their reuse patterns are fully known offline).
func TestPlannedCompetitiveOnCNNs(t *testing.T) {
	for _, m := range []*models.Model{denseLarge, resnetLarge, vggLarge} {
		pl, err := Run(m, "AutoTM", Config{Iterations: 2, CheckInvariants: true})
		if err != nil {
			t.Fatal(err)
		}
		ca := runCAT(t, m, policy.CALM, checked)
		base := run2LMT(t, m, false, checked)
		// Within 30% of the runtime policy in either direction, and
		// clearly ahead of the unmanaged cache.
		ratio := pl.IterTime / ca.IterTime
		if ratio > 1.3 || ratio < 0.7 {
			t.Errorf("%s: plan %.1fs vs CA:LM %.1fs (%.2fx) — not competitive",
				m.Name, pl.IterTime, ca.IterTime, ratio)
		}
		if pl.IterTime >= base.IterTime {
			t.Errorf("%s: plan (%.1fs) lost to 2LM:0 (%.1fs)", m.Name, pl.IterTime, base.IterTime)
		}
	}
}

// TestPlannedOffloadPatternExecutes checks the planned park/restore copies
// actually run (the vDNN/AutoTM offload pattern).
func TestPlannedOffloadPatternExecutes(t *testing.T) {
	m := models.VGG(116, 320)
	cfg := Config{Iterations: 2, FastCapacity: 60 * units.GB, CheckInvariants: true}
	plan := planner.Build(m, 58*units.GB, planner.DefaultCostModel())
	_, offload, _ := plan.Counts()
	if offload == 0 {
		t.Fatal("no offloads planned")
	}
	r, err := drive(newPlannedStepper(m, plan, cfg, nil))
	if err != nil {
		t.Fatal(err)
	}
	if r.DM.BytesFastToSlow == 0 || r.DM.BytesSlowToFast == 0 {
		t.Fatalf("offload copies did not execute: %+v", r.DM)
	}
	if r.MoveTime <= 0 {
		t.Error("no synchronous movement recorded")
	}
}

// TestPlannedPlanSizeMismatch exercises the validation path.
func TestPlannedPlanSizeMismatch(t *testing.T) {
	m := models.MLP(16, []int{8}, 2, 4)
	bad := &planner.Plan{Placement: make([]planner.Placement, 1)}
	if _, err := drive(newPlannedStepper(m, bad, Config{Iterations: 1}, nil)); err == nil {
		t.Fatal("mismatched plan accepted")
	}
}
