package engine

import (
	"testing"

	"cachedarrays/internal/models"
	"cachedarrays/internal/pagemig"
	"cachedarrays/internal/policy"
	"cachedarrays/internal/units"
)

// TestPageMigBaselineOrdering places the OS page-tiering baseline where
// the paper's related-work discussion predicts: better than the
// unmanaged hardware cache (it avoids some conflict-miss churn and moves
// pages at decent granularity), but behind CachedArrays (it reacts to
// history instead of exploiting future-use hints).
func TestPageMigBaselineOrdering(t *testing.T) {
	m := resnetLarge
	cfg := Config{Iterations: 2}
	os, err := Run(m, "OS:page", cfg)
	if err != nil {
		t.Fatal(err)
	}
	lm0 := run2LMT(t, m, false, checked)
	ca := runCAT(t, m, policy.CALM, checked)
	if os.IterTime >= lm0.IterTime {
		t.Errorf("OS paging (%.1fs) should beat 2LM:0 (%.1fs)", os.IterTime, lm0.IterTime)
	}
	if os.IterTime <= ca.IterTime {
		t.Errorf("CachedArrays (%.1fs) should beat OS paging (%.1fs)", ca.IterTime, os.IterTime)
	}
	if os.Mode != "OS:page" {
		t.Errorf("mode = %q", os.Mode)
	}
	// The daemon must actually have migrated something.
	if os.MoveTime <= 0 {
		t.Error("no migration time recorded")
	}
}

// TestPageMigInvariants runs the baseline with state checking on a small
// model.
func TestPageMigInvariants(t *testing.T) {
	m := models.ResNet(50, 256)
	r, err := drive(newPageMigStepper(m, pagemig.Config{
		PageSize: 2 << 20, EpochKernels: 10, Decay: 0.5, PromoteMargin: 1.25,
	}, Config{Iterations: 3, CheckInvariants: true,
		FastCapacity: 8 * units.GB, SlowCapacity: 128 * units.GB}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Iterations) != 3 {
		t.Fatalf("iterations = %d", len(r.Iterations))
	}
	if r.Fast.TotalBytes() == 0 {
		t.Error("page tiering never promoted anything into DRAM")
	}
}

// TestPageMigErrors exercises failure paths.
func TestPageMigErrors(t *testing.T) {
	m := models.MLP(1024, []int{4096}, 10, 64)
	if _, err := Run(m, "OS:page", Config{
		Iterations: 1, FastCapacity: units.MB, SlowCapacity: units.MB,
	}); err == nil {
		t.Error("over-capacity page-tiering run succeeded")
	}
	if _, err := drive(newPageMigStepper(m, pagemig.Config{PageSize: -1}, Config{Iterations: 1}, nil)); err == nil {
		t.Error("negative page size accepted")
	}
}
