package engine

import (
	"reflect"
	"testing"

	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/tracing"
)

// TestMetricsDoNotPerturbRun is the zero-cost contract of the metrics
// layer, mirroring the fault layer's: attaching a registry must leave
// every observable of a run — per-iteration metrics, device counters,
// policy/dm/gc statistics, and the full execution trace — exactly
// identical to a run with no registry at all.
func TestMetricsDoNotPerturbRun(t *testing.T) {
	model := models.ResNet(50, 256)
	for _, async := range []bool{false, true} {
		base := Config{Iterations: 3, Trace: true, CheckInvariants: true, AsyncMovement: async}

		r1, err := Run(model, "CA:LMP", base)
		if err != nil {
			t.Fatal(err)
		}
		instrumented := base
		instrumented.Metrics = metrics.New(0)
		r2, err := Run(model, "CA:LMP", instrumented)
		if err != nil {
			t.Fatal(err)
		}
		if err := tracing.Verify(r2.Trace); err != nil {
			t.Fatalf("async=%v: instrumented trace: %v", async, err)
		}
		// The configs differ by construction; everything else must not.
		r1.Config, r2.Config = Config{}, Config{}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("async=%v: results diverged:\n  iter %v vs %v\n  dm %+v vs %+v\n  trace %d vs %d events",
				async, r1.IterTime, r2.IterTime, r1.DM, r2.DM, len(r1.Trace), len(r2.Trace))
		}
	}
}

// TestMetricsByteIdenticalBaselines extends the non-perturbation contract
// to the baseline runners (2LM, OS page migration, AutoTM plans).
func TestMetricsByteIdenticalBaselines(t *testing.T) {
	model := models.ResNet(50, 256)
	base := Config{Iterations: 2, CheckInvariants: true}
	instrumented := base
	instrumented.Metrics = metrics.New(0)

	for _, mode := range []string{"2LM:0", "OS:page", "AutoTM"} {
		r1, err := Run(model, mode, base)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		cfg := instrumented
		cfg.Metrics = metrics.New(0) // fresh registry per run (series re-register)
		r2, err := Run(model, mode, cfg)
		if err != nil {
			t.Fatalf("%s instrumented: %v", mode, err)
		}
		r1.Config, r2.Config = Config{}, Config{}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: results diverged: iter %v vs %v", mode, r1.IterTime, r2.IterTime)
		}
	}
}

// TestMetricsDoNotPerturbAdaptive extends the contract to the online
// guidance stacks, whose throttle reads the slow tier's bus utilization:
// a metered run and a bare run must agree exactly, and the throttle must
// actually fire on the thrashing workload so the signal path is
// exercised, at the counts pinned here.
func TestMetricsDoNotPerturbAdaptive(t *testing.T) {
	m, base := thrashCfg()
	for mode, throttled := range map[string]int64{AdaptiveOG: 8, AdaptiveOGTG: 4} {
		bare, err := Run(m, mode, base)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		cfg := base
		cfg.Metrics = metrics.New(0)
		metered, err := Run(m, mode, cfg)
		if err != nil {
			t.Fatalf("%s metered: %v", mode, err)
		}
		if cfg.Metrics.Samples() == 0 {
			t.Fatalf("%s: metered run never sampled", mode)
		}
		bare.Config, metered.Config = Config{}, Config{}
		if !reflect.DeepEqual(bare, metered) {
			t.Errorf("%s: results diverged: iter %v vs %v, adaptive %+v vs %+v",
				mode, bare.IterTime, metered.IterTime, bare.Adaptive, metered.Adaptive)
		}
		if bare.Adaptive.Throttled != throttled {
			t.Errorf("%s: Throttled = %d, want %d", mode, bare.Adaptive.Throttled, throttled)
		}
	}
}

// TestMetricsSubstance checks the sampled series actually carry the run:
// samples were taken, and the final sampled counters agree with the
// authoritative Result statistics.
func TestMetricsSubstance(t *testing.T) {
	model := models.ResNet(50, 256)
	reg := metrics.New(0)
	cfg := Config{Iterations: 3, Metrics: reg}
	res, err := Run(model, "CA:LMP", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Samples() == 0 {
		t.Fatal("no samples taken over a paper-scale run")
	}
	s := reg.Summarize()
	if s.Meta["model"] != model.Name || s.Meta["mode"] != "CA:LMP" {
		t.Fatalf("meta = %v", s.Meta)
	}
	check := func(series string, want float64) {
		t.Helper()
		ss, ok := s.Series[series]
		if !ok {
			t.Fatalf("series %s missing (have %d series)", series, len(s.Series))
		}
		if ss.Last != want {
			t.Errorf("%s last = %g, want %g", series, ss.Last, want)
		}
	}
	// Flush() ran at the end of the run, so the last sample is the final
	// state and must agree with the Result's cumulative stats.
	check("dm_copies", float64(res.DM.Copies))
	check("dm_region_allocs", float64(res.DM.RegionAllocs))
	check("policy_evictions", float64(res.Policy.Evictions))
	check("gc_collections", float64(res.GC.Collections))
	check("engine_iterations", float64(cfg.Iterations))
	// Region churn balances down to the live objects' regions.
	if res.DM.RegionAllocs <= 0 || res.DM.RegionFrees <= 0 {
		t.Errorf("region churn not counted: allocs=%d frees=%d", res.DM.RegionAllocs, res.DM.RegionFrees)
	}
	// Occupancy gauges exist for both tiers.
	for _, name := range []string{"dm_fast_used_bytes", "dm_slow_used_bytes", "mem_dram_read_bytes", "mem_nvram_write_bytes"} {
		if _, ok := s.Series[name]; !ok {
			t.Errorf("series %s missing", name)
		}
	}
	// Total kernel time across iterations matches the engine counter.
	var kernel float64
	for _, it := range res.Iterations {
		kernel += it.ComputeTime
	}
	if got := s.Series["engine_kernel_seconds"].Last; !approx(got, kernel) {
		t.Errorf("engine_kernel_seconds = %g, want %g", got, kernel)
	}
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := b
	if scale < 0 {
		scale = -scale
	}
	return d <= 1e-9*(1+scale)
}
