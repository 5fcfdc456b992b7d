package engine

import (
	"testing"

	"cachedarrays/internal/models"
	"cachedarrays/internal/policy"
	"cachedarrays/internal/tracing"
	"cachedarrays/internal/units"
)

// TestTraceConsistencyVGG416 is the acceptance check of the tracing
// subsystem: a paper-scale VGG 416 run under CA:LMP yields a trace whose
// event sums reproduce the run's published aggregates *exactly* — integer
// byte counters bit-for-bit, per-iteration stall seconds by exact float
// equality.
func TestTraceConsistencyVGG416(t *testing.T) {
	res, err := Run(vggLarge, "CA:LMP", Config{Iterations: 4, Trace: true})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("Config.Trace set but Result.Trace empty")
	}
	if err := tracing.Verify(res.Trace); err != nil {
		t.Fatal(err)
	}
	// The trace must actually have substance: transfers, decisions,
	// kernels and stalls all present for a DRAM-overflowing model.
	counts := map[tracing.Kind]int{}
	for _, e := range res.Trace {
		counts[e.Kind]++
	}
	for _, k := range []tracing.Kind{tracing.KindXfer, tracing.KindCopy,
		tracing.KindDecision, tracing.KindKernel, tracing.KindKernelIO,
		tracing.KindStall, tracing.KindBind, tracing.KindIter, tracing.KindTotals} {
		if counts[k] == 0 {
			t.Errorf("trace has no %q events", k)
		}
	}
	if got, want := counts[tracing.KindKernel], 4*len(vggLarge.Kernels); got != want {
		t.Errorf("kernel events: got %d, want %d", got, want)
	}
	if got, want := counts[tracing.KindIter], 4; got != want {
		t.Errorf("iter events: got %d, want %d", got, want)
	}
}

// TestTraceConsistencyAllModes runs the verifier across every operating
// mode, both movement designs and the CXL tier at reduced scale.
func TestTraceConsistencyAllModes(t *testing.T) {
	m := models.ResNet(50, 128)
	small := Config{Iterations: 3, Trace: true,
		FastCapacity: 4 * units.GB, SlowCapacity: 64 * units.GB}
	for _, mode := range policy.Modes {
		res, err := Run(m, mode.String(), small)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := tracing.Verify(res.Trace); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
	async := small
	async.AsyncMovement = true
	async.HintLookahead = 2
	res, err := Run(m, "CA:LMP", async)
	if err != nil {
		t.Fatalf("async: %v", err)
	}
	if err := tracing.Verify(res.Trace); err != nil {
		t.Errorf("async: %v", err)
	}
	cxl := small
	cxl.SlowTier = "cxl"
	res, err = Run(m, "CA:LMP", cxl)
	if err != nil {
		t.Fatalf("cxl: %v", err)
	}
	if err := tracing.Verify(res.Trace); err != nil {
		t.Errorf("cxl: %v", err)
	}
}

// TestTraceDoesNotPerturbRun asserts tracing is observation only: the same
// configuration with and without Config.Trace produces identical results.
func TestTraceDoesNotPerturbRun(t *testing.T) {
	m := models.ResNet(50, 128)
	cfg := Config{Iterations: 3, FastCapacity: 4 * units.GB, SlowCapacity: 64 * units.GB}
	plain, err := Run(m, "CA:LMP", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = true
	traced, err := Run(m, "CA:LMP", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.IterTime != traced.IterTime || plain.MoveTime != traced.MoveTime ||
		plain.ComputeTime != traced.ComputeTime || plain.GCTime != traced.GCTime {
		t.Errorf("tracing changed timings: plain %+v, traced %+v",
			plain.Iterations, traced.Iterations)
	}
	if plain.Fast != traced.Fast || plain.Slow != traced.Slow {
		t.Errorf("tracing changed traffic: plain fast=%+v slow=%+v, traced fast=%+v slow=%+v",
			plain.Fast, plain.Slow, traced.Fast, traced.Slow)
	}
	if plain.DM != traced.DM {
		t.Errorf("tracing changed dm stats: plain %+v, traced %+v", plain.DM, traced.DM)
	}
	if plain.Policy != traced.Policy {
		t.Errorf("tracing changed policy stats: plain %+v, traced %+v",
			plain.Policy, traced.Policy)
	}
}

// TestTraceBindsEveryObject asserts attribution works: every object that
// appears in a copy event was bound to a tensor name first.
func TestTraceBindsEveryObject(t *testing.T) {
	m := models.ResNet(50, 128)
	res, err := Run(m, "CA:LMP", Config{Iterations: 2, Trace: true,
		FastCapacity: 4 * units.GB, SlowCapacity: 64 * units.GB})
	if err != nil {
		t.Fatal(err)
	}
	bound := map[uint64]bool{}
	for _, e := range res.Trace {
		switch e.Kind {
		case tracing.KindBind:
			bound[e.Obj] = true
		case tracing.KindCopy:
			if e.Obj != 0 && !bound[e.Obj] {
				t.Fatalf("copy of object %d before any bind event", e.Obj)
			}
		}
	}
	if len(bound) == 0 {
		t.Fatal("no bind events recorded")
	}
}
