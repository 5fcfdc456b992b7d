package engine

import (
	"reflect"
	"testing"

	"cachedarrays/internal/models"
	"cachedarrays/internal/tracing"
)

// TestFaultlessInjectorByteIdentical is the zero-cost contract of the
// fault layer: wiring the injector with an episode-free schedule must
// leave every observable of a run — per-iteration metrics, device
// counters, policy/dm/gc statistics, and the full execution trace (from
// which the results CSVs are pure functions) — exactly identical to a run
// with no injector at all.
func TestFaultlessInjectorByteIdentical(t *testing.T) {
	model := models.ResNet(50, 256)
	base := Config{Iterations: 3, Trace: true, CheckInvariants: true}

	r1, err := Run(model, "CA:LMP", base)
	if err != nil {
		t.Fatal(err)
	}
	withInjector := base
	withInjector.FaultSpec = "seed=12345" // injector wired, no episodes
	r2, err := Run(model, "CA:LMP", withInjector)
	if err != nil {
		t.Fatal(err)
	}

	if err := tracing.Verify(r1.Trace); err != nil {
		t.Fatalf("baseline trace: %v", err)
	}
	if err := tracing.Verify(r2.Trace); err != nil {
		t.Fatalf("injector trace: %v", err)
	}
	if r2.Faults.Total() != 0 {
		t.Fatalf("episode-free injector fired: %+v", r2.Faults)
	}
	// The configs differ by construction; everything else must not.
	r1.Config, r2.Config = Config{}, Config{}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("results diverged:\n  iter %v vs %v\n  dm %+v vs %+v\n  policy %+v vs %+v\n  trace %d vs %d events",
			r1.IterTime, r2.IterTime, r1.DM, r2.DM, r1.Policy, r2.Policy,
			len(r1.Trace), len(r2.Trace))
	}
}

// TestPaperScaleFaultedRunCompletes is the graceful-degradation contract
// at paper scale: a full CA:LMP training run under a seeded schedule
// covering every fault kind must complete without panic, with the
// invariants checker auditing every clock advance, and must actually have
// exercised the degradation paths.
func TestPaperScaleFaultedRunCompletes(t *testing.T) {
	model := models.ResNet(200, 2048)
	cfg := Config{
		Iterations:        2,
		Trace:             true,
		CheckEveryAdvance: true,
		FaultSpec: "seed=7;" +
			"allocfail:fast:t0=0,p=0.2;" +
			"copyerr:t0=0,p=0.1;" +
			"copystall:nvram:t0=0,stall=2ms;" +
			"bw:nvram:t0=10,t1=40,factor=0.25;" +
			"shrink:fast:t0=30,bytes=60GB",
	}
	r, err := Run(model, "CA:LMP", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.InvariantChecks == 0 {
		t.Fatal("no invariant audits ran despite CheckEveryAdvance")
	}
	if r.Faults.Total() == 0 {
		t.Fatalf("fault schedule never fired: %+v", r.Faults)
	}
	if r.Faults.AllocFailures == 0 || r.Faults.CopyErrors == 0 || r.Faults.CopyStalls == 0 {
		t.Fatalf("expected every per-opportunity fault kind to fire: %+v", r.Faults)
	}
	if r.DM.AllocRetries == 0 || r.DM.CopyRetries == 0 {
		t.Fatalf("manager never retried: %+v", r.DM)
	}
	// The trace must attribute the degradation: fault and retry events
	// carry the hint in whose window they fired.
	var faultEv, retryEv int
	for _, e := range r.Trace {
		switch e.Kind {
		case tracing.KindFault:
			faultEv++
		case tracing.KindRetry:
			retryEv++
		}
	}
	if faultEv == 0 || retryEv == 0 {
		t.Fatalf("trace missing fault attribution: %d fault, %d retry events", faultEv, retryEv)
	}
	// The trace's bit-exact decomposition must survive retry backoff
	// landing inside hint windows.
	if err := tracing.Verify(r.Trace); err != nil {
		t.Fatalf("faulted trace failed verification: %v", err)
	}
}
