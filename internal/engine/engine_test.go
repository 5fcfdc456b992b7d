package engine

import (
	"fmt"
	"math"
	"testing"

	"cachedarrays/internal/models"
	"cachedarrays/internal/policy"
	"cachedarrays/internal/twolm"
	"cachedarrays/internal/units"
)

// Most tests run the paper's actual workloads at paper scale — the engine
// is a virtual-time simulator, so a 500 GB-footprint run takes well under a
// second of host time. Shared results are cached across tests.

var (
	resultCache = map[string]*Result{}
)

func runCAT(t *testing.T, m *models.Model, mode policy.Mode, cfg Config) *Result {
	t.Helper()
	key := fmt.Sprintf("ca/%s/%d/%v/%d", m.Name, m.BatchSize, mode, cfg.FastCapacity)
	if r, ok := resultCache[key]; ok {
		return r
	}
	r, err := Run(m, mode.String(), cfg)
	if err != nil {
		t.Fatalf("Run(%s, %v): %v", m.Name, mode, err)
	}
	resultCache[key] = r
	return r
}

func run2LMT(t *testing.T, m *models.Model, memOpt bool, cfg Config) *Result {
	t.Helper()
	key := fmt.Sprintf("2lm/%s/%d/%v", m.Name, m.BatchSize, memOpt)
	if r, ok := resultCache[key]; ok {
		return r
	}
	mode := "2LM:0"
	if memOpt {
		mode = "2LM:M"
	}
	r, err := Run(m, mode, cfg)
	if err != nil {
		t.Fatalf("Run(%s, %s): %v", m.Name, mode, err)
	}
	resultCache[key] = r
	return r
}

// drive runs a stepper built directly by its constructor — the path for
// tests that need a custom pagemig.Config or planner.Plan, which Run's
// mode names do not carry.
func drive(st Stepper, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return Drive(st)
}

var (
	denseLarge  = models.DenseNet(264, 1536)
	resnetLarge = models.ResNet(200, 2048)
	vggLarge    = models.VGG(416, 256)
	denseSmall  = models.DenseNet(264, 504)
)

var checked = Config{Iterations: 2, CheckInvariants: true}

func TestRunCAInvariantsAllModes(t *testing.T) {
	m := models.ResNet(50, 128)
	for _, mode := range policy.Modes {
		if _, err := Run(m, mode.String(), Config{Iterations: 3, CheckInvariants: true,
			FastCapacity: 4 * units.GB, SlowCapacity: 64 * units.GB}); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}

func TestRun2LMInvariants(t *testing.T) {
	m := models.ResNet(50, 128)
	for _, mode := range []string{"2LM:0", "2LM:M"} {
		if _, err := Run(m, mode, Config{Iterations: 3, CheckInvariants: true,
			FastCapacity: 4 * units.GB, SlowCapacity: 64 * units.GB}); err != nil {
			t.Errorf("%s: %v", mode, err)
		}
	}
}

// TestFig2CachedArraysBeats2LM asserts the paper's headline: CachedArrays
// (best configuration) outperforms the unoptimized hardware cache by
// 1.4x-2.03x on the large networks. Our simulator lands 1.2x-2.2x.
func TestFig2CachedArraysBeats2LM(t *testing.T) {
	for _, m := range []*models.Model{denseLarge, resnetLarge, vggLarge} {
		base := run2LMT(t, m, false, checked)
		best := math.Inf(1)
		for _, mode := range policy.Modes {
			if r := runCAT(t, m, mode, checked); r.IterTime < best {
				best = r.IterTime
			}
		}
		speedup := base.IterTime / best
		if speedup < 1.2 {
			t.Errorf("%s: CachedArrays speedup %.2fx below paper band", m.Name, speedup)
		}
		if speedup > 2.75 {
			t.Errorf("%s: CachedArrays speedup %.2fx implausibly above paper band", m.Name, speedup)
		}
	}
}

// TestFig2OptimizationOrdering asserts the within-CachedArrays ordering of
// Fig. 2: L improves on 0, and LM improves on L, for every large network.
func TestFig2OptimizationOrdering(t *testing.T) {
	for _, m := range []*models.Model{denseLarge, resnetLarge, vggLarge} {
		r0 := runCAT(t, m, policy.CAZero, checked)
		rl := runCAT(t, m, policy.CAL, checked)
		rlm := runCAT(t, m, policy.CALM, checked)
		if rl.IterTime >= r0.IterTime {
			t.Errorf("%s: CA:L (%.1fs) not faster than CA:0 (%.1fs)", m.Name, rl.IterTime, r0.IterTime)
		}
		if rlm.IterTime >= rl.IterTime {
			t.Errorf("%s: CA:LM (%.1fs) not faster than CA:L (%.1fs)", m.Name, rlm.IterTime, rl.IterTime)
		}
	}
}

// TestFig2PrefetchingSplit asserts the paper's "no one size fits all"
// finding: prefetching hurts DenseNet and ResNet but helps VGG.
func TestFig2PrefetchingSplit(t *testing.T) {
	for _, m := range []*models.Model{denseLarge, resnetLarge} {
		lm := runCAT(t, m, policy.CALM, checked)
		lmp := runCAT(t, m, policy.CALMP, checked)
		if lmp.IterTime <= lm.IterTime {
			t.Errorf("%s: prefetching should hurt (LM %.1fs, LMP %.1fs)",
				m.Name, lm.IterTime, lmp.IterTime)
		}
	}
	lm := runCAT(t, vggLarge, policy.CALM, checked)
	lmp := runCAT(t, vggLarge, policy.CALMP, checked)
	if lmp.IterTime >= lm.IterTime {
		t.Errorf("vgg416: prefetching should help (LM %.1fs, LMP %.1fs)", lm.IterTime, lmp.IterTime)
	}
}

// TestFig2MemOptHelps2LM asserts that the eager-freeing optimization
// improves the hardware cache too — the paper's "semantic information
// improves 2LM" finding.
func TestFig2MemOptHelps2LM(t *testing.T) {
	for _, m := range []*models.Model{denseLarge, resnetLarge, vggLarge} {
		r0 := run2LMT(t, m, false, checked)
		rm := run2LMT(t, m, true, checked)
		if rm.IterTime >= r0.IterTime {
			t.Errorf("%s: 2LM:M (%.1fs) not faster than 2LM:0 (%.1fs)", m.Name, rm.IterTime, r0.IterTime)
		}
	}
}

// TestFig4CacheTagStats asserts the ResNet cache-statistics deltas: the
// annotated run has a substantially higher hit rate (paper: +18%) and a
// roughly halved dirty-miss rate.
func TestFig4CacheTagStats(t *testing.T) {
	r0 := run2LMT(t, resnetLarge, false, checked)
	rm := run2LMT(t, resnetLarge, true, checked)
	if rm.Cache.HitRate() < r0.Cache.HitRate()+0.10 {
		t.Errorf("hit rate: 2LM:0 %.3f vs 2LM:M %.3f — want >= +0.10",
			r0.Cache.HitRate(), rm.Cache.HitRate())
	}
	if rm.Cache.DirtyMissRate() > 0.75*r0.Cache.DirtyMissRate() {
		t.Errorf("dirty miss rate: 2LM:0 %.3f vs 2LM:M %.3f — want ~50%% lower",
			r0.Cache.DirtyMissRate(), rm.Cache.DirtyMissRate())
	}
}

// TestFig5MemoryOptimizationSlashesNVRAMWrites asserts the DenseNet
// finding: applying M drops NVRAM writes by roughly 3x (paper: ~1100 GB ->
// ~350 GB), flipping the write/read balance.
func TestFig5MemoryOptimizationSlashesNVRAMWrites(t *testing.T) {
	rl := runCAT(t, denseLarge, policy.CAL, checked)
	rlm := runCAT(t, denseLarge, policy.CALM, checked)
	if ratio := float64(rl.Slow.WriteBytes) / float64(rlm.Slow.WriteBytes); ratio < 2 {
		t.Errorf("NVRAM write reduction %.2fx, want >= 2x (L: %s, LM: %s)",
			ratio, units.Bytes(rl.Slow.WriteBytes), units.Bytes(rlm.Slow.WriteBytes))
	}
	// With M, NVRAM reads exceed NVRAM writes (paper Fig. 5a).
	if rlm.Slow.ReadBytes <= rlm.Slow.WriteBytes {
		t.Errorf("CA:LM NVRAM reads (%s) should exceed writes (%s)",
			units.Bytes(rlm.Slow.ReadBytes), units.Bytes(rlm.Slow.WriteBytes))
	}
}

// TestFig5PrefetchShiftsReadTraffic asserts that prefetching moves read
// traffic from NVRAM to DRAM, with VGG's NVRAM reads dropping by a large
// factor (paper: 5.4x).
func TestFig5PrefetchShiftsReadTraffic(t *testing.T) {
	lm := runCAT(t, vggLarge, policy.CALM, checked)
	lmp := runCAT(t, vggLarge, policy.CALMP, checked)
	if ratio := float64(lm.Slow.ReadBytes) / float64(lmp.Slow.ReadBytes); ratio < 3 {
		t.Errorf("VGG NVRAM read reduction %.2fx, want >= 3x", ratio)
	}
	if lmp.Fast.ReadBytes <= lm.Fast.ReadBytes {
		t.Error("prefetching should increase DRAM reads")
	}
}

// TestFig6BusUtilization asserts the utilization cross-over: CA:0 has
// higher DRAM bus utilization than 2LM:0 for ResNet (large transfers) and
// lower for VGG (small batch, small transfers), and utilization rises as
// optimizations are applied.
func TestFig6BusUtilization(t *testing.T) {
	caRes := runCAT(t, resnetLarge, policy.CAZero, checked)
	lmRes := run2LMT(t, resnetLarge, false, checked)
	if caRes.FastBusUtil <= lmRes.FastBusUtil {
		t.Errorf("ResNet: CA:0 util %.3f should exceed 2LM:0 util %.3f",
			caRes.FastBusUtil, lmRes.FastBusUtil)
	}
	caVGG := runCAT(t, vggLarge, policy.CAZero, checked)
	lmVGG := run2LMT(t, vggLarge, false, checked)
	if caVGG.FastBusUtil >= lmVGG.FastBusUtil {
		t.Errorf("VGG: CA:0 util %.3f should be below 2LM:0 util %.3f",
			caVGG.FastBusUtil, lmVGG.FastBusUtil)
	}
	// Fully-optimized CachedArrays achieves higher utilization than the
	// unoptimized configuration while the memory-optimized modes move
	// less total traffic (paper: utilization tends to rise and traffic
	// tends to fall as optimizations apply).
	caLMP := runCAT(t, resnetLarge, policy.CALMP, checked)
	if caLMP.FastBusUtil <= caRes.FastBusUtil {
		t.Errorf("ResNet: CA:LMP util %.3f should exceed CA:0 util %.3f",
			caLMP.FastBusUtil, caRes.FastBusUtil)
	}
	caLM := runCAT(t, resnetLarge, policy.CALM, checked)
	if caLM.Fast.TotalBytes() >= caRes.Fast.TotalBytes() {
		t.Error("ResNet: CA:LM should move less DRAM traffic than CA:0")
	}
}

// TestFig7DRAMSensitivity asserts the sweep shape: NVRAM-only is 3x-7x
// slower; a modest DRAM budget recovers most of the loss; and the
// async-projected time stays nearly flat for DenseNet.
func TestFig7DRAMSensitivity(t *testing.T) {
	full := runCAT(t, denseSmall, policy.CALM, Config{Iterations: 2, FastCapacity: 180 * units.GB})
	half := runCAT(t, denseSmall, policy.CALM, Config{Iterations: 2, FastCapacity: 60 * units.GB})
	none := runCAT(t, denseSmall, policy.CALM, Config{Iterations: 2, FastCapacity: NVRAMOnly})

	penalty := none.IterTime / full.IterTime
	if penalty < 3 || penalty > 7 {
		t.Errorf("NVRAM-only penalty %.2fx outside the 3-7x band (paper: 3-4x)", penalty)
	}
	if half.IterTime >= none.IterTime {
		t.Error("60 GB of DRAM did not recover performance")
	}
	recovered := (none.IterTime - half.IterTime) / (none.IterTime - full.IterTime)
	if recovered < 0.5 {
		t.Errorf("60 GB DRAM recovered only %.0f%% of the NVRAM-only loss", 100*recovered)
	}
	// Async projection nearly flat (paper: "varies only slightly").
	if full.ProjectedAsyncTime <= 0 || half.ProjectedAsyncTime <= 0 {
		t.Fatal("async projections not positive")
	}
	if rel := math.Abs(half.ProjectedAsyncTime-full.ProjectedAsyncTime) / full.ProjectedAsyncTime; rel > 0.15 {
		t.Errorf("async projection moved %.0f%% between budgets, want < 15%%", 100*rel)
	}
}

// TestSmallModelsFitInDRAM asserts the Table III small-network premise:
// under CA:LM with the full budget, training generates no NVRAM traffic.
func TestSmallModelsFitInDRAM(t *testing.T) {
	for _, pm := range models.PaperSmallModels() {
		m := pm.Build()
		r := runCAT(t, m, policy.CALM, Config{Iterations: 2})
		if r.Slow.TotalBytes() != 0 {
			t.Errorf("%s: NVRAM traffic %s on a DRAM-fitting model",
				pm.Name, units.Bytes(r.Slow.TotalBytes()))
		}
	}
}

// TestFig3HeapOccupancyShapes asserts the Fig. 3 curves: without memory
// optimizations the 2LM heap grows to a much higher peak than with them,
// and the M curve turns downward during the backward pass.
func TestFig3HeapOccupancyShapes(t *testing.T) {
	cfg := Config{Iterations: 2, SampleHeap: true}
	r0, err := Run(resnetLarge, "2LM:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := Run(resnetLarge, "2LM:M", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r0.HeapSamples) == 0 || len(rm.HeapSamples) == 0 {
		t.Fatal("no heap samples recorded")
	}
	if float64(r0.PeakHeap) < 1.8*float64(rm.PeakHeap) {
		t.Errorf("2LM:0 peak heap %s should dwarf 2LM:M peak %s",
			units.Bytes(r0.PeakHeap), units.Bytes(rm.PeakHeap))
	}
	// 2LM:M ends its iteration well below its own peak (freed on the
	// backward pass), while 2LM:0 stays near its peak until the final
	// collection.
	lastM := rm.HeapSamples[len(rm.HeapSamples)-1].Used
	if lastM > rm.PeakHeap/2 {
		t.Errorf("2LM:M final occupancy %s not well below peak %s",
			units.Bytes(lastM), units.Bytes(rm.PeakHeap))
	}
}

// TestIterationConsistency mirrors the paper's methodology check: behavior
// across measured iterations must be consistent.
func TestIterationConsistency(t *testing.T) {
	r, err := Run(denseSmall, "CA:LM", Config{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Iterations) != 4 {
		t.Fatalf("recorded %d iterations", len(r.Iterations))
	}
	base := r.Iterations[1].Time
	for i := 2; i < 4; i++ {
		if rel := math.Abs(r.Iterations[i].Time-base) / base; rel > 0.05 {
			t.Errorf("iteration %d time deviates %.1f%% from iteration 1", i, 100*rel)
		}
	}
}

// TestAggregateSkipsWarmup verifies the averaging convention.
func TestAggregateSkipsWarmup(t *testing.T) {
	r := &Result{Iterations: []IterationMetrics{
		{Time: 100, ComputeTime: 80, MoveTime: 20},
		{Time: 10, ComputeTime: 8, MoveTime: 2},
		{Time: 12, ComputeTime: 10, MoveTime: 2},
	}}
	r.aggregate()
	if r.IterTime != 11 {
		t.Errorf("IterTime = %v, want 11 (warm-up skipped)", r.IterTime)
	}
	if r.ProjectedAsyncTime != 9 {
		t.Errorf("ProjectedAsyncTime = %v, want 9", r.ProjectedAsyncTime)
	}
}

// TestTrafficConservation checks accounting consistency: every byte the
// data manager reports moving appears in the device counters.
func TestTrafficConservation(t *testing.T) {
	r := runCAT(t, denseSmall, policy.CAL, Config{Iterations: 2, FastCapacity: 60 * units.GB})
	// NVRAM writes come only from evictions (fast->slow copies); with
	// the copy engine the byte counts must match up to kernel writes,
	// which CA:L never sends to NVRAM-resident objects... except when
	// fast memory is too tight. At minimum, NVRAM writes >= dm's
	// fast->slow bytes per iteration is not directly comparable after
	// averaging, so check the full-run numbers instead.
	var nvW int64
	for _, it := range r.Iterations {
		nvW += it.Slow.WriteBytes
	}
	if nvW == 0 {
		t.Fatal("expected NVRAM writes under a 60 GB budget")
	}
	if r.DM.BytesFastToSlow == 0 {
		t.Fatal("dm recorded no fast->slow movement")
	}
}

// TestConfigErrors exercises failure paths.
func TestConfigErrors(t *testing.T) {
	tiny := Config{Iterations: 1, FastCapacity: units.MB, SlowCapacity: units.MB}
	if _, err := Run(models.MLP(1024, []int{4096}, 10, 64), "CA:LM", tiny); err == nil {
		t.Error("over-capacity CA run succeeded")
	}
	if _, err := Run(models.MLP(1024, []int{4096}, 10, 64), "2LM:M", tiny); err == nil {
		t.Error("over-capacity 2LM run succeeded")
	}
	bad := Config{Iterations: 1, TwoLM: twolm.Config{LineSize: -5}}
	if _, err := Run(models.MLP(16, []int{8}, 2, 4), "2LM:M", bad); err == nil {
		t.Error("bad 2LM config accepted")
	}
}

// TestNormalizeAliases pins the canonical names and the accepted alias
// spellings (which must all share one cache key space), and that Run
// accepts any of them.
func TestNormalizeAliases(t *testing.T) {
	want := map[string]string{
		"2LM:0": "2LM:0", "2lm:o": "2LM:0", "2LM:M": "2LM:M",
		"CA:0": "CA:0", "ca:o": "CA:0", "CA:L": "CA:L",
		"ca:lm": "CA:LM", "CA:LMP": "CA:LMP",
		"ca:og": "CA:OG", "CA:TG": "CA:TG", "ca:tgog": "CA:OGTG",
		"os": "OS:page", "OS:PAGE": "OS:page",
		"AutoTM": "AutoTM", "plan": "AutoTM", "autotm:plan": "AutoTM",
	}
	for in, out := range want {
		got, err := Normalize(in)
		if err != nil {
			t.Errorf("%s: %v", in, err)
		} else if got != out {
			t.Errorf("Normalize(%s) = %s, want %s", in, got, out)
		}
	}
	if _, err := Normalize("NUMA"); err == nil {
		t.Error("unknown mode normalized")
	}
	m := models.MLP(16, []int{8}, 2, 4)
	r, err := Run(m, "os", Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != "OS:page" {
		t.Errorf("Run(os) ran mode %q, want OS:page", r.Mode)
	}
	if _, err := Run(m, "NUMA", Config{Iterations: 1}); err == nil {
		t.Error("Run accepted an unknown mode")
	}
}
