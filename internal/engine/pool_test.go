package engine

import (
	"reflect"
	"sync"
	"testing"

	"cachedarrays/internal/metrics"
)

// TestPooledPlatformReuseMatchesFresh is the platform-pooling property
// test: after the pool has been dirtied by runs in every instrumented
// and configuration variant that shares the same pool key — async
// movement, tracing, fault injection, per-advance audits, a metrics
// registry — a plain run must still be reflect.DeepEqual-identical to
// the run that first populated the pool. Any hook or state leaking
// through a release would break this.
func TestPooledPlatformReuseMatchesFresh(t *testing.T) {
	cfg := Config{Iterations: 2}
	base, err := Run(resnetLarge, "CA:LM", cfg)
	if err != nil {
		t.Fatal(err)
	}

	dirty := []Config{
		{Iterations: 2, AsyncMovement: true},
		{Iterations: 2, Trace: true},
		{Iterations: 2, TraceEvents: 16},
		{Iterations: 2, FaultSpec: "seed=42;allocfail:fast:t0=0.1,t1=0.5,p=0.5;copystall:nvram:t0=0,stall=2ms"},
		{Iterations: 2, CheckInvariants: true},
	}
	for _, d := range dirty {
		if _, err := Run(resnetLarge, "CA:LM", d); err != nil {
			t.Fatal(err)
		}
	}
	reg := metrics.New(0.5)
	if _, err := Run(resnetLarge, "CA:LM", Config{Iterations: 2, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if reg.Samples() == 0 {
		t.Fatal("metered dirty run recorded no samples")
	}

	again, err := Run(resnetLarge, "CA:LM", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, again) {
		t.Fatal("run on a pool-recycled platform differs from the first run")
	}
	// And the reverse hazard: a sync run between two async runs must not
	// perturb the async timings (Copier.Async/WriteThreadCap are set per
	// acquire, not trusted from the pooled platform).
	acfg := Config{Iterations: 2, AsyncMovement: true}
	async1, err := Run(resnetLarge, "CA:LM", acfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(resnetLarge, "CA:LM", cfg); err != nil {
		t.Fatal(err)
	}
	async2, err := Run(resnetLarge, "CA:LM", acfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(async1, async2) {
		t.Fatal("async run after a sync pool cycle differs")
	}
}

// TestPoolRecyclesAcrossModes: every engine entry point releases its
// platform back to the pool on success, so a mixed-mode sequence reuses
// one platform per key instead of growing the pool per run.
func TestPoolRecyclesAcrossModes(t *testing.T) {
	cfg := Config{Iterations: 1}
	run := func() {
		if _, err := Run(vggLarge, "CA:LM", cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(vggLarge, "2LM:M", cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(vggLarge, "AutoTM", cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // populate the pool for this key
	key := platformKey{
		fast:     cfg.Canonical().FastCapacity,
		slow:     cfg.Canonical().SlowCapacity,
		threads:  cfg.Canonical().CopyThreads,
		slowTier: cfg.Canonical().SlowTier,
	}
	depth := poolDepth(key)
	if depth == 0 {
		t.Fatal("no platform returned to the pool")
	}
	run() // serial reruns must recycle, not grow
	if after := poolDepth(key); after != depth {
		t.Fatalf("pool grew from %d to %d across serial reruns", depth, after)
	}
}

// TestPoolConcurrentAcquireRelease is the sharded-pool contention test:
// many goroutines hammer acquire/release across one shared key and a set
// of distinct keys at once (mixed slow tiers and copy-thread counts, so
// distinct keys map to distinct shards). Under -race this proves the
// shard map and per-shard freelists are race-free; the DeepEqual check
// afterwards proves a platform recycled through concurrent churn still
// carries Reset's freshly-built semantics; and the depth bound proves
// concurrent same-key releases all land in one shard instead of leaking.
func TestPoolConcurrentAcquireRelease(t *testing.T) {
	shared := Config{Iterations: 1}
	base, err := Run(vggLarge, "CA:LM", shared)
	if err != nil {
		t.Fatal(err)
	}

	distinct := []Config{
		{Iterations: 1, SlowTier: "cxl"},
		{Iterations: 1, CopyThreads: 2},
		{Iterations: 1, CopyThreads: 3},
	}
	const workers, rounds = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				cfg := shared
				if w%2 == 1 { // half the workers churn distinct shards
					cfg = distinct[(w+r)%len(distinct)]
				}
				if _, err := Run(vggLarge, "CA:LM", cfg); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	again, err := Run(vggLarge, "CA:LM", shared)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, again) {
		t.Fatal("run on a concurrently-churned pooled platform differs from the fresh run")
	}
	key := platformKey{
		fast:     shared.Canonical().FastCapacity,
		slow:     shared.Canonical().SlowCapacity,
		threads:  shared.Canonical().CopyThreads,
		slowTier: shared.Canonical().SlowTier,
	}
	if depth := poolDepth(key); depth > workers+2 {
		t.Fatalf("shared-key shard holds %d idle platforms, more than the %d concurrent acquirers", depth, workers+2)
	}
}
