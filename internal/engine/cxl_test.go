package engine

import (
	"testing"

	"cachedarrays/internal/policy"
)

// TestCXLPortability asserts the §VI claim: swapping the slow tier from
// NVRAM to CXL remote memory — with zero policy changes — preserves the
// optimization ordering, while the symmetric link compresses the gaps.
func TestCXLPortability(t *testing.T) {
	cfg := Config{Iterations: 2, CheckInvariants: true, SlowTier: "cxl"}
	r0, err := Run(denseLarge, "CA:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Run(denseLarge, "CA:L", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rlm, err := Run(denseLarge, "CA:LM", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(rlm.IterTime < rl.IterTime && rl.IterTime < r0.IterTime) {
		t.Errorf("CXL ordering broken: 0=%.1f L=%.1f LM=%.1f",
			r0.IterTime, rl.IterTime, rlm.IterTime)
	}
	// The gap compresses relative to NVRAM (write symmetry).
	nv0 := runCAT(t, denseLarge, policy.CAZero, checked)
	nvLM := runCAT(t, denseLarge, policy.CALM, checked)
	cxlGap := r0.IterTime / rlm.IterTime
	nvGap := nv0.IterTime / nvLM.IterTime
	if cxlGap >= nvGap {
		t.Errorf("CXL gap (%.2fx) should be below the NVRAM gap (%.2fx)", cxlGap, nvGap)
	}
}

// TestUnknownSlowTierFallsBack ensures an unknown tier name keeps the
// NVRAM default rather than failing (the field is advisory).
func TestUnknownSlowTier(t *testing.T) {
	p, _ := acquirePlatform(Config{SlowTier: "weird"}.withDefaults())
	if p.Slow.Name != "nvram" {
		t.Fatalf("unknown tier produced device %q", p.Slow.Name)
	}
	c, _ := acquirePlatform(Config{SlowTier: "cxl"}.withDefaults())
	if c.Slow.Name != "cxl" {
		t.Fatalf("cxl tier produced device %q", c.Slow.Name)
	}
}
