package sched

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
)

// paperModel builds a paper-scale network (full batch size) for the
// cache tests: the acceptance bar is a DeepEqual-identical hit on real
// workloads, not toys.
func paperModel() *models.Model {
	return models.PaperLargeModels()[1].Build() // ResNet 200, batch 2048
}

func mustKey(t *testing.T, m *models.Model, mode string, cfg engine.Config) string {
	t.Helper()
	k, err := Key(m, mode, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestCacheHitDeepEqual proves the memoization contract at paper scale:
// a second scheduler with a fresh Cache over the same directory (forcing
// the disk path, not the in-memory map) returns a result that is
// reflect.DeepEqual-identical to the simulated one.
func TestCacheHitDeepEqual(t *testing.T) {
	dir := t.TempDir()
	cfg := engine.Config{Iterations: 2}
	cell := func() []Cell {
		return []Cell{{Name: "hit", Model: paperModel(), Mode: "CA:LM", Cfg: cfg}}
	}

	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := (&Scheduler{Cache: c1}).Run(cell())
	if err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.Misses != 1 || st.Stores != 1 || st.Hits != 0 {
		t.Fatalf("cold stats = %+v, want 1 miss, 1 store", st)
	}

	c2, err := OpenCache(dir) // fresh instance: empty memory, must load from disk
	if err != nil {
		t.Fatal(err)
	}
	warm, err := (&Scheduler{Cache: c2}).Run(cell())
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("warm stats = %+v, want 1 hit", st)
	}
	if !reflect.DeepEqual(cold[0], warm[0]) {
		t.Fatal("disk-cached result is not DeepEqual to the simulated one")
	}
}

// TestCacheSharedWithinProcess checks the in-memory path and that the
// run name is not part of the key: two differently-named cells with the
// same (model, mode, config) dedup to one simulation.
func TestCacheSharedWithinProcess(t *testing.T) {
	c, err := OpenCache("") // memory-only
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{Iterations: 2}
	cells := []Cell{
		{Name: "matrix-resnet-calm", Model: paperModel(), Mode: "CA:LM", Cfg: cfg},
		{Name: "baselines-resnet-calm", Model: paperModel(), Mode: "ca:lm", Cfg: cfg},
	}
	results, err := (&Scheduler{Cache: c}).Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits+st.Misses != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly 1 miss and 1 hit for identical cells", st)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("deduped cells returned different results")
	}
}

// mutateField flips one leaf value in place, recursing into structs.
// Returns false for kinds the key hasher rejects anyway (pointers).
func mutateField(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.25)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if mutateField(v.Field(i)) {
				return true
			}
		}
		return false
	default:
		return false
	}
	return true
}

// TestKeySensitiveToEveryField walks engine.Config by reflection and
// checks that mutating any (hashable) field changes the cache key — the
// property that keeps a new config knob from aliasing an old result.
// The base config sets every defaultable field to a non-default value so
// a mutation can never be normalized away by Canonical.
func TestKeySensitiveToEveryField(t *testing.T) {
	m := paperModel()
	base := engine.Config{Iterations: 3, Allocator: "bestfit", SlowTier: "nvram"}.Canonical()
	baseKey := mustKey(t, m, "CA:LM", base)

	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		cfg := base
		if !mutateField(reflect.ValueOf(&cfg).Elem().Field(i)) {
			continue // pointer fields: covered by TestKeyRejectsLiveState
		}
		k, err := Key(m, "CA:LM", cfg)
		if err != nil {
			t.Errorf("Config.%s: key error after mutation: %v", f.Name, err)
			continue
		}
		if k == baseKey {
			t.Errorf("Config.%s: mutation did not change the cache key", f.Name)
		}
	}

	// Mode and model feed the key too.
	if mustKey(t, m, "CA:LMP", base) == baseKey {
		t.Error("mode change did not change the cache key")
	}
	if mustKey(t, models.PaperLargeModels()[0].Build(), "CA:LM", base) == baseKey {
		t.Error("model change did not change the cache key")
	}
	// Alias spellings of one mode share a key (that is the dedup point).
	if mustKey(t, m, "ca:lm", base) != baseKey {
		t.Error("mode alias spelling changed the cache key")
	}
}

// TestKeyRejectsLiveState: a config carrying live state (an attached
// metrics registry) must refuse to produce a key rather than alias.
func TestKeyRejectsLiveState(t *testing.T) {
	cfg := engine.Config{Metrics: metrics.New(0.5)}
	if _, err := Key(paperModel(), "CA:LM", cfg); err == nil {
		t.Fatal("Key accepted a config with a live metrics registry")
	}
	if Cacheable(cfg) {
		t.Fatal("Cacheable accepted a config with a live metrics registry")
	}
}

// TestInstrumentedBypass: any instrumentation flag makes the run bypass
// the cache entirely — no hit, no store.
func TestInstrumentedBypass(t *testing.T) {
	mutations := map[string]func(*engine.Config){
		"trace":       func(c *engine.Config) { c.Trace = true },
		"events":      func(c *engine.Config) { c.TraceEvents = 8 },
		"faults":      func(c *engine.Config) { c.FaultSpec = "seed=1;allocfail:fast:t0=0,t1=1,p=0.1" },
		"check":       func(c *engine.Config) { c.CheckEveryAdvance = true },
		"invariants":  func(c *engine.Config) { c.CheckInvariants = true },
		"metrics-reg": func(c *engine.Config) { c.Metrics = metrics.New(0.5) },
	}
	for name, mut := range mutations {
		t.Run(name, func(t *testing.T) {
			c, err := OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			cfg := engine.Config{Iterations: 1}
			mut(&cfg)
			if Cacheable(cfg) {
				t.Fatalf("config with %s counts as cacheable", name)
			}
			cells := []Cell{{Name: name, Model: paperModel(), Mode: "CA:LM", Cfg: cfg}}
			if _, err := (&Scheduler{Cache: c}).Run(cells); err != nil {
				t.Fatal(err)
			}
			if st := c.Stats(); st != (CacheStats{}) {
				t.Fatalf("instrumented run touched the cache: %+v", st)
			}
		})
	}
}

// TestCorruptEntryRecomputed: a truncated or bit-flipped disk entry is
// detected by the integrity header, counted, and transparently
// recomputed (and the recompute overwrites the bad entry).
func TestCorruptEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	m := paperModel()
	cfg := engine.Config{Iterations: 2}
	key := mustKey(t, m, "CA:LM", cfg)

	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	good, err := (&Scheduler{Cache: c1}).Run([]Cell{{Name: "seed", Model: m, Mode: "CA:LM", Cfg: cfg}})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, key+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("cache entry not on disk: %v", err)
	}
	for name, bad := range map[string][]byte{
		"truncated":   data[:len(data)/2],
		"bit-flipped": append(append([]byte{}, data[:len(data)-3]...), data[len(data)-3]^0x40, data[len(data)-2], data[len(data)-1]),
		"no-header":   []byte("not a cache entry"),
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			c2, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			again, err := (&Scheduler{Cache: c2}).Run([]Cell{{Name: "retry", Model: paperModel(), Mode: "CA:LM", Cfg: cfg}})
			if err != nil {
				t.Fatal(err)
			}
			st := c2.Stats()
			if st.Hits != 0 || st.Corrupt != 1 || st.Stores != 1 {
				t.Fatalf("stats after corruption = %+v, want corrupt=1, stores=1, hits=0", st)
			}
			if !reflect.DeepEqual(good[0], again[0]) {
				t.Fatal("recomputed result differs from the original")
			}
			// The overwrite must have repaired the entry.
			c3, _ := OpenCache(dir)
			if _, ok := c3.Get(key); !ok {
				t.Fatal("recompute did not repair the disk entry")
			}
		})
	}
}

// TestNilCache: the nil *Cache is a working no-op.
func TestNilCache(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache hit")
	}
	if err := c.Put("k", &engine.Result{}); err != nil {
		t.Fatal(err)
	}
	if c.Stats() != (CacheStats{}) {
		t.Fatal("nil cache has stats")
	}
}

// TestRunOrderAndErrors: results come back in submission order, and the
// first error is wrapped with the failing cell's name.
func TestRunOrderAndErrors(t *testing.T) {
	m := models.MLP(256, []int{256}, 64, 8)
	cfg := engine.Config{Iterations: 1}
	cells := []Cell{
		{Name: "a", Model: m, Mode: "CA:LM", Cfg: cfg},
		{Name: "b", Model: m, Mode: "2LM:0", Cfg: cfg},
		{Name: "c", Model: m, Mode: "CA:0", Cfg: cfg},
	}
	results, err := (&Scheduler{Workers: 3}).Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	wantModes := []string{"CA:LM", "2LM:0", "CA:0"}
	for i, r := range results {
		if r == nil || r.Mode != wantModes[i] {
			t.Errorf("result %d: got %v, want mode %s", i, r, wantModes[i])
		}
	}

	cells[1].Mode = "NUMA"
	if _, err := (&Scheduler{Workers: 3}).Run(cells); err == nil {
		t.Fatal("bad mode did not fail the batch")
	} else if !strings.Contains(err.Error(), "b:") {
		t.Fatalf("error %q not wrapped with the cell name", err)
	}
}

// TestRunFastFailSkipsRemaining is the regression test for the
// run-after-error waste: a 32-cell batch whose first cell errors must
// not burn the remaining 31 simulations before reporting. With one
// worker the feeder dispatches in submission order, so the failure
// lands before any real cell runs and the whole tail is skipped.
func TestRunFastFailSkipsRemaining(t *testing.T) {
	const n = 32
	cells := make([]Cell, n)
	cells[0] = Cell{
		Name:  "poisoned",
		Build: func() (*models.Model, error) { return nil, fmt.Errorf("injected build failure") },
		Mode:  "CA:LM",
		Cfg:   engine.Config{Iterations: 1},
	}
	for i := 1; i < n; i++ {
		cells[i] = Cell{
			Name: fmt.Sprintf("real-%d", i),
			// Distinct iteration counts defeat single-flight dedup, so
			// Simulations() counts every cell that actually ran.
			Build: func() (*models.Model, error) { return models.MLP(256, []int{256}, 64, 8), nil },
			Mode:  "CA:LM",
			Cfg:   engine.Config{Iterations: 1 + i%4},
		}
	}
	s := &Scheduler{Workers: 1}
	_, err := s.Run(cells)
	if err == nil || !strings.Contains(err.Error(), "poisoned:") {
		t.Fatalf("batch error = %v, want the poisoned cell's wrapped error", err)
	}
	if sims := s.Simulations(); sims >= n-1 {
		t.Fatalf("scheduler simulated %d cells after the first error; fast-fail should skip the tail", sims)
	} else if sims > 2 {
		t.Errorf("scheduler simulated %d cells after an immediate cell-0 error, want at most the in-flight overlap (<= 2)", sims)
	}
}

// TestRunSummaryCountsFailures: the final sched: summary must account
// for every cell — errored cells used to skip the done counter, so the
// summary undercounted processed cells and never mentioned the failure.
func TestRunSummaryCountsFailures(t *testing.T) {
	var buf bytes.Buffer
	m := models.MLP(256, []int{256}, 64, 8)
	cells := []Cell{
		{Name: "ok", Model: m, Mode: "CA:LM", Cfg: engine.Config{Iterations: 1}},
		{Name: "bad", Model: m, Mode: "NUMA", Cfg: engine.Config{Iterations: 1}},
		{Name: "tail", Model: m, Mode: "CA:0", Cfg: engine.Config{Iterations: 1}},
	}
	s := &Scheduler{Workers: 1, Progress: &buf}
	if _, err := s.Run(cells); err == nil {
		t.Fatal("bad mode did not fail the batch")
	}
	out := buf.String()
	if !strings.Contains(out, "2/3 runs (1 ok, 1 failed, 1 skipped)") {
		t.Fatalf("summary does not account for the failed and skipped cells: %q", out)
	}

	// The success-path summary keeps its stable format (CI greps it).
	buf.Reset()
	okCells := []Cell{{Name: "ok", Model: m, Mode: "CA:LM", Cfg: engine.Config{Iterations: 1}}}
	if _, err := (&Scheduler{Workers: 1, Progress: &buf}).Run(okCells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1 runs, 0 cache hits, 1 simulated, workers=1") {
		t.Fatalf("success summary format changed: %q", buf.String())
	}
}

// FuzzConfigKey feeds arbitrary field values through the key and checks
// the two properties the cache relies on: determinism (same inputs, same
// key) and injectivity over the fuzzed fields (any differing field gives
// a different key).
func FuzzConfigKey(f *testing.F) {
	f.Add(int64(0), int64(0), 4, "", "", false, 0)
	f.Add(int64(1<<30), int64(1<<34), 2, "buddy", "cxl", true, 3)
	m := models.MLP(64, []int{64}, 16, 4) // key hashing never simulates; small model keeps fuzzing fast
	mk := func(fast, slow int64, iters int, alloc, tier string, async bool, look int) engine.Config {
		return engine.Config{
			FastCapacity: fast, SlowCapacity: slow, Iterations: iters,
			Allocator: alloc, SlowTier: tier, AsyncMovement: async, HintLookahead: look,
		}
	}
	f.Fuzz(func(t *testing.T, fast, slow int64, iters int, alloc, tier string, async bool, look int) {
		cfg := mk(fast, slow, iters, alloc, tier, async, look)
		k1, err := Key(m, "CA:LM", cfg)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := Key(m, "CA:LM", mk(fast, slow, iters, alloc, tier, async, look))
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Fatal("key is not deterministic")
		}
		// Canonicalization folds zero values to defaults, so compare
		// against a config that differs post-canonicalization.
		other := cfg.Canonical()
		other.HintLookahead++
		k3, err := Key(m, "CA:LM", other)
		if err != nil {
			t.Fatal(err)
		}
		if k3 == k1 {
			t.Fatal("differing configs share a key")
		}
	})
}
