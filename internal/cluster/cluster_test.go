package cluster

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/sched"
	"cachedarrays/internal/tracing"
	"cachedarrays/internal/units"
)

// movementHeavy is a model whose working set overflows the tight fast
// tier below, forcing evictions, prefetches and GC — the regime where an
// event-driven refactor would show any drift.
func movementHeavy() *models.Model {
	return models.MLP(1024, []int{4096, 4096}, 10, 256)
}

var tight = engine.Config{
	FastCapacity: 32 * units.MB,
	SlowCapacity: 2 * units.GB,
	Iterations:   3,
}

// allModes is every canonical operating mode.
var allModes = []string{
	"2LM:0", "2LM:M", "CA:0", "CA:L", "CA:LM", "CA:LMP",
	"CA:OG", "CA:TG", "CA:OGTG", "OS:page", "AutoTM",
}

// TestSoloIdentityAllModes pins the tentpole refactor's core obligation:
// a cluster with a single tenant is byte-identical — reflect.DeepEqual
// over the full engine result, execution trace included — to the solo
// engine run, for every operating mode. Any perturbation the event-driven
// core introduced (reordered operations, quota wrapping, hook fan-out)
// would surface here as a diff.
func TestSoloIdentityAllModes(t *testing.T) {
	for _, mode := range allModes {
		t.Run(mode, func(t *testing.T) {
			cfg := tight
			cfg.Trace = true
			cfg.CheckEveryAdvance = true
			solo, err := engine.Run(movementHeavy(), mode, cfg)
			if err != nil {
				t.Fatalf("solo: %v", err)
			}
			res, err := Run(Config{
				Engine: cfg,
				Jobs:   []Job{{Name: "only", Model: movementHeavy(), Mode: mode}},
			})
			if err != nil {
				t.Fatalf("cluster: %v", err)
			}
			got := res.Tenants[0].Result
			if !reflect.DeepEqual(got, solo) {
				t.Fatalf("N=1 cluster result differs from solo run\ncluster: %+v\nsolo:    %+v", got, solo)
			}
			if res.Tenants[0].Wait != 0 {
				t.Errorf("solo tenant waited %g", res.Tenants[0].Wait)
			}
			if want := res.Tenants[0].Finish - res.Tenants[0].Start; res.Tenants[0].Busy != want {
				t.Errorf("solo tenant busy %g != active span %g", res.Tenants[0].Busy, want)
			}
		})
	}
}

// TestSoloIdentityAsync repeats the identity check under asynchronous
// movement, where the shared copy engine's backlog is part of the state.
func TestSoloIdentityAsync(t *testing.T) {
	cfg := tight
	cfg.AsyncMovement = true
	cfg.HintLookahead = 2
	solo, err := engine.Run(movementHeavy(), "CA:LMP", cfg)
	if err != nil {
		t.Fatalf("solo: %v", err)
	}
	res, err := Run(Config{
		Engine: cfg,
		Jobs:   []Job{{Model: movementHeavy(), Mode: "CA:LMP"}},
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	if !reflect.DeepEqual(res.Tenants[0].Result, solo) {
		t.Fatal("async N=1 cluster result differs from solo run")
	}
}

// TestSoloSlowdownIsOne: with a baseline scheduler attached, a lone
// tenant's slowdown is exactly 1.0 — its active span is its solo time.
func TestSoloSlowdownIsOne(t *testing.T) {
	res, err := Run(Config{
		Engine:    tight,
		Jobs:      []Job{{Model: movementHeavy(), Mode: "CA:LMP"}},
		Baselines: &sched.Scheduler{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tenants[0].Slowdown; got != 1.0 {
		t.Fatalf("solo slowdown = %v, want exactly 1.0", got)
	}
}

// TestRepeatRunDeterminism: the same seeded job mix produces a
// byte-identical cluster result on every run, including the fairness
// metrics computed through a parallel baseline scheduler.
func TestRepeatRunDeterminism(t *testing.T) {
	run := func(workers int) *Result {
		t.Helper()
		res, err := Run(Config{
			Engine:    tight,
			Jobs:      Mix(7, 4),
			Baselines: &sched.Scheduler{Workers: workers},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(1)
	again := run(1)
	parallel := run(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(first, again) {
		t.Fatal("repeat run differs")
	}
	if !reflect.DeepEqual(first, parallel) {
		t.Fatal("parallel-baseline run differs from serial")
	}
}

// TestTieBreakByJobIndex pins the dispatch loop's tie-breaking rule: two
// identical jobs collide at every event timestamp (both start at arrival
// 0 and consume identical durations), and the lower job index must win
// every tie — first dispatch, first start, first finish.
func TestTieBreakByJobIndex(t *testing.T) {
	job := func(name string) Job {
		return Job{Name: name, Model: models.MLP(512, []int{1024}, 10, 64), Mode: "CA:LMP"}
	}
	res, err := Run(Config{
		Engine: engine.Config{FastCapacity: 64 * units.MB, SlowCapacity: units.GB, Iterations: 2},
		Jobs:   []Job{job("a"), job("b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Tenants[0], res.Tenants[1]
	if a.FirstDispatch != 0 {
		t.Errorf("job a first dispatch = %d, want 0 (index tie-break)", a.FirstDispatch)
	}
	if b.FirstDispatch != 1 {
		t.Errorf("job b first dispatch = %d, want 1 (strict alternation from the first collision)", b.FirstDispatch)
	}
	if a.Start >= b.Start {
		t.Errorf("job a started at %g, not before b at %g", a.Start, b.Start)
	}
	// The iteration-boundary event consumes zero virtual time, so the
	// identical jobs may finish at the same instant — but a can never
	// finish after b.
	if a.Finish > b.Finish {
		t.Errorf("job a finished at %g, after b at %g", a.Finish, b.Finish)
	}
	// Identical jobs must interleave evenly: neither can run to
	// completion before the other starts.
	if b.Start >= a.Finish {
		t.Errorf("job b started at %g, after a finished at %g — tenants did not interleave", b.Start, a.Finish)
	}
}

// TestArrivalOrdersDispatch: a later arrival merges later regardless of
// job index.
func TestArrivalOrdersDispatch(t *testing.T) {
	m := func() *models.Model { return models.MLP(512, []int{1024}, 10, 64) }
	res, err := Run(Config{
		Engine: engine.Config{FastCapacity: 64 * units.MB, SlowCapacity: units.GB, Iterations: 2},
		Jobs: []Job{
			{Name: "late", Model: m(), Mode: "CA:LMP", Arrival: 1000},
			{Name: "early", Model: m(), Mode: "CA:LMP"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	late, early := res.Tenants[0], res.Tenants[1]
	if early.FirstDispatch != 0 {
		t.Errorf("early job's first dispatch = %d, want 0", early.FirstDispatch)
	}
	// An arrival far past the early job's total runtime serializes them.
	if late.FirstDispatch != early.Steps {
		t.Errorf("late job's first dispatch = %d, want %d (after every early event)",
			late.FirstDispatch, early.Steps)
	}
}

// TestPerTenantConservation runs a contended mixed-mode cluster under the
// invariants auditor attached to every clock advance: each tenant's
// private manager must conserve bytes (used + free == capacity per tier)
// at every point virtual time moves, with the audits fanned out from the
// cluster's single clock hook.
func TestPerTenantConservation(t *testing.T) {
	cfg := tight
	cfg.CheckEveryAdvance = true
	cfg.CheckInvariants = true
	res, err := Run(Config{
		Engine: cfg,
		Jobs: []Job{
			{Name: "ca", Model: movementHeavy(), Mode: "CA:LMP"},
			{Name: "co", Model: models.MLP(1024, []int{2048}, 10, 128), Mode: "CA:LM"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range res.Tenants {
		if tn.Result.InvariantChecks == 0 {
			t.Errorf("%s: no invariant audits ran", tn.Name)
		}
	}
}

// TestContendedFairnessMetrics is the acceptance scenario: a 4-tenant
// contended run must produce per-tenant slowdown and fast-tier-share
// metrics, no tenant may appear to speed up under contention (slowdown >=
// 1.0), shares must partition the fast-tier traffic, and the whole result
// must be reproducible byte-for-byte with parallel baseline workers.
func TestContendedFairnessMetrics(t *testing.T) {
	mk := func() Config {
		return Config{
			Engine: tight,
			Jobs: []Job{
				{Name: "t0", Model: movementHeavy(), Mode: "CA:LMP"},
				{Name: "t1", Model: movementHeavy(), Mode: "CA:LMP"},
				{Name: "t2", Model: models.MLP(1024, []int{2048, 2048}, 10, 128), Mode: "CA:LM"},
				{Name: "t3", Model: models.MLP(512, []int{4096}, 10, 256), Mode: "CA:TG"},
			},
			Baselines: &sched.Scheduler{Workers: runtime.GOMAXPROCS(0)},
		}
	}
	res, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	var shares float64
	for _, tn := range res.Tenants {
		if tn.Slowdown < 1.0 {
			t.Errorf("%s: slowdown %v < 1.0 — tenant sped up under contention", tn.Name, tn.Slowdown)
		}
		if tn.SoloTime <= 0 {
			t.Errorf("%s: no solo baseline time", tn.Name)
		}
		if tn.FastShare <= 0 || tn.FastShare >= 1 {
			t.Errorf("%s: fast share %v outside (0,1)", tn.Name, tn.FastShare)
		}
		if tn.Wait <= 0 {
			t.Errorf("%s: no wait time under 4-way contention", tn.Name)
		}
		shares += tn.FastShare
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Errorf("fast shares sum to %v, want 1", shares)
	}
	// At least one tenant must show real interference beyond time
	// sharing: a 4-way contended run on a tight fast tier is not free.
	slowest := 0.0
	for _, tn := range res.Tenants {
		if tn.Slowdown > slowest {
			slowest = tn.Slowdown
		}
	}
	if slowest < 1.5 {
		t.Errorf("slowest tenant's slowdown %v suspiciously low for 4-way contention", slowest)
	}
	again, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatal("contended run is not reproducible")
	}
}

// TestThrashGuardSuppressesCrossTenantPingPong is the adversarial
// co-tenant scenario: an antagonist squeezes the shared fast tier so a
// static CA:LMP victim ping-pongs (evict to make room, fetch it back,
// evict again). The same victim under CA:TG must detect the cycle, back
// off its fetches, and do measurably less futile movement.
func TestThrashGuardSuppressesCrossTenantPingPong(t *testing.T) {
	victim := func(mode string) (Tenant, error) {
		res, err := Run(Config{
			Engine: engine.Config{
				FastCapacity: 24 * units.MB,
				SlowCapacity: 2 * units.GB,
				Iterations:   4,
			},
			Jobs: []Job{
				{Name: "victim", Model: movementHeavy(), Mode: mode},
				{Name: "antagonist", Model: movementHeavy(), Mode: "CA:LMP"},
			},
		})
		if err != nil {
			return Tenant{}, err
		}
		return res.Tenants[0], nil
	}
	lmp, err := victim("CA:LMP")
	if err != nil {
		t.Fatal(err)
	}
	tg, err := victim("CA:TG")
	if err != nil {
		t.Fatal(err)
	}
	lmpMoves := lmp.Result.Policy.Evictions + lmp.Result.Policy.Prefetches
	tgMoves := tg.Result.Policy.Evictions + tg.Result.Policy.Prefetches
	t.Logf("CA:LMP victim: %d evictions + %d prefetches; CA:TG victim: %d + %d (backoffs %d, suppressed %d)",
		lmp.Result.Policy.Evictions, lmp.Result.Policy.Prefetches,
		tg.Result.Policy.Evictions, tg.Result.Policy.Prefetches,
		tg.Result.Adaptive.ThrashBackoffs, tg.Result.Adaptive.SuppressedFetches)
	if lmpMoves == 0 {
		t.Fatal("scenario too loose: static victim did not move data at all")
	}
	if tg.Result.Adaptive.ThrashBackoffs == 0 {
		t.Error("CA:TG victim never detected cross-tenant-induced thrashing")
	}
	if tg.Result.Adaptive.SuppressedFetches == 0 {
		t.Error("CA:TG victim suppressed no fetches")
	}
	if tgMoves >= lmpMoves {
		t.Errorf("CA:TG victim moved as much as the static victim: %d >= %d", tgMoves, lmpMoves)
	}
}

// TestQuotaArbitration: the sum of all tenants' allocations can never
// exceed the device, so a co-tenant measurably displaces its neighbour.
// The fast tier is sized so one job fits without a single eviction but
// two do not — every cluster eviction is co-tenant-induced, and the
// InducedEvictions metric must catch it.
func TestQuotaArbitration(t *testing.T) {
	res, err := Run(Config{
		Engine: engine.Config{
			FastCapacity: 192 * units.MB,
			SlowCapacity: 2 * units.GB,
			Iterations:   3,
		},
		Jobs: []Job{
			{Name: "a", Model: movementHeavy(), Mode: "CA:LMP"},
			{Name: "b", Model: movementHeavy(), Mode: "CA:LMP"},
		},
		Baselines: &sched.Scheduler{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range res.Tenants {
		if tn.InducedEvictions == 0 {
			t.Errorf("%s: co-tenant induced no evictions", tn.Name)
		}
		if tn.InducedEvictions != tn.Result.Policy.Evictions {
			t.Errorf("%s: solo run evicted — fast tier not sized to fit one job (induced %d != total %d)",
				tn.Name, tn.InducedEvictions, tn.Result.Policy.Evictions)
		}
	}
}

// TestClusterErrors covers the config validations.
func TestClusterErrors(t *testing.T) {
	m := models.MLP(256, []int{256}, 10, 8)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no jobs", Config{Engine: tight}},
		{"bad mode", Config{Engine: tight, Jobs: []Job{{Model: m, Mode: "nope"}}}},
		{"no model", Config{Engine: tight, Jobs: []Job{{Mode: "CA:LMP"}}}},
		{"negative arrival", Config{Engine: tight, Jobs: []Job{{Model: m, Mode: "CA:LMP", Arrival: -1}}}},
		{"multi-tenant faults", Config{
			Engine: engine.Config{FaultSpec: "alloc-fail@0.1"},
			Jobs:   []Job{{Model: m, Mode: "CA:LMP"}, {Model: m, Mode: "CA:LMP"}},
		}},
		{"duplicate tenant labels", Config{
			Engine: tight,
			Jobs: []Job{
				{Name: "team a", Model: m, Mode: "CA:LMP"},
				{Name: "team:a", Model: m, Mode: "CA:LMP"},
			},
		}},
	}
	for _, c := range cases {
		if _, err := Run(c.cfg); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// TestFaultsErrorNamesJob: the fault-injection restriction names the
// offending job so a mixed submission is actionable without digging.
func TestFaultsErrorNamesJob(t *testing.T) {
	m := models.MLP(256, []int{256}, 10, 8)
	_, err := Run(Config{
		Engine: engine.Config{FaultSpec: "alloc-fail@0.1"},
		Jobs: []Job{
			{Name: "victim", Model: m, Mode: "CA:LMP"},
			{Name: "bystander", Model: m, Mode: "CA:LMP"},
		},
	})
	if err == nil {
		t.Fatal("multi-tenant faults: no error")
	}
	for _, want := range []string{"job 0", "victim", "dedicated platform"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("faults error %q does not mention %q", err, want)
		}
	}
}

// TestMultiTenantTraceAllowed: the single-tracer restriction is lifted —
// a traced multi-tenant run succeeds and yields a verified, tenant-tagged
// trace (the regression twin of the faults restriction above).
func TestMultiTenantTraceAllowed(t *testing.T) {
	m := models.MLP(256, []int{256}, 10, 8)
	res, err := Run(Config{
		Engine: func() engine.Config { c := tight; c.Trace = true; return c }(),
		Jobs: []Job{
			{Name: "a", Model: m, Mode: "CA:LMP"},
			{Name: "b", Model: m, Mode: "CA:LMP"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("traced multi-tenant run produced no trace")
	}
	if err := tracing.VerifyLanes(res.Trace); err != nil {
		t.Fatal(err)
	}
	names, lanes := tracing.Lanes(res.Trace)
	if len(names) != 2 {
		t.Fatalf("trace has lanes %v, want one per tenant", names)
	}
	for _, n := range names {
		if len(lanes[n]) == 0 {
			t.Errorf("lane %s is empty", n)
		}
	}
	for _, tn := range res.Tenants {
		if len(tn.Result.Trace) != 0 {
			t.Errorf("%s: tenant result carries a private trace; the cluster owns the multiplexed one", tn.Name)
		}
	}
}

// TestTenantLabelSanitization: caller-chosen tenant names with characters
// that would corrupt series names, CSV headers or Prometheus labels are
// folded to safe labels, and the cluster registry's per-tenant series key
// by the sanitized label.
func TestTenantLabelSanitization(t *testing.T) {
	m := models.MLP(256, []int{256}, 10, 8)
	reg := metrics.New(0)
	cfg := tight
	cfg.Metrics = reg
	res, err := Run(Config{
		Engine: cfg,
		Jobs: []Job{
			{Name: "Team A, web", Model: m, Mode: "CA:LMP"},
			{Name: "mix1-CA:LM", Model: m, Mode: "CA:LM"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"team_a__web", "mix1-ca_lm"}
	for i, tn := range res.Tenants {
		if tn.Label != want[i] {
			t.Errorf("tenant %d label %q, want %q", i, tn.Label, want[i])
		}
	}
	reg.Flush(1)
	for _, lbl := range want {
		if _, ok := reg.Value("cluster_" + lbl + "_fast_bytes"); !ok {
			t.Errorf("cluster registry has no series for label %s", lbl)
		}
	}
	for s := range reg.Summarize().Series {
		if strings.ContainsAny(s, ", :") {
			t.Errorf("series name %q contains unsafe characters", s)
		}
	}
}

// normalizeObs strips the observability-only differences between an
// instrumented cluster result and a bare one so reflect.DeepEqual
// compares simulation outcomes: the recorded Config (which truthfully
// differs in Trace/Metrics), the tenant Labels' trace/metrics carriers
// and the multiplexed trace itself.
func normalizeObs(res, bare *Result) {
	res.Trace = nil
	for i := range res.Tenants {
		if res.Tenants[i].Result != nil && bare.Tenants[i].Result != nil {
			res.Tenants[i].Result.Config = bare.Tenants[i].Result.Config
		}
	}
}

// TestTraceDoesNotPerturbCluster: a traced multi-tenant run is, trace
// stripped, reflect.DeepEqual-identical to the bare run — the mux only
// observes; it never changes a byte of the simulation.
func TestTraceDoesNotPerturbCluster(t *testing.T) {
	jobs := []Job{
		{Name: "a", Model: movementHeavy(), Mode: "CA:LMP"},
		{Name: "b", Model: movementHeavy(), Mode: "CA:LM", Arrival: 0.001},
		{Name: "c", Model: movementHeavy(), Mode: "2LM:M", Arrival: 0.002},
	}
	bare, err := Run(Config{Engine: tight, Jobs: jobs, Baselines: &sched.Scheduler{}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tight
	cfg.Trace = true
	traced, err := Run(Config{Engine: cfg, Jobs: jobs, Baselines: &sched.Scheduler{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Trace) == 0 {
		t.Fatal("traced run produced no trace")
	}
	if err := tracing.VerifyLanes(traced.Trace); err != nil {
		t.Fatal(err)
	}
	normalizeObs(traced, bare)
	if !reflect.DeepEqual(traced, bare) {
		t.Error("tracing perturbed the cluster run")
	}
}

// TestMetricsDoNotPerturbCluster: a fully metered multi-tenant run
// (cluster registry plus per-tenant registries) is identical to the bare
// run once the registries are stripped from the recorded configs.
func TestMetricsDoNotPerturbCluster(t *testing.T) {
	jobs := []Job{
		{Name: "a", Model: movementHeavy(), Mode: "CA:LMP"},
		{Name: "b", Model: movementHeavy(), Mode: "CA:LM", Arrival: 0.001},
		{Name: "c", Model: movementHeavy(), Mode: "2LM:M", Arrival: 0.002},
	}
	bare, err := Run(Config{Engine: tight, Jobs: jobs, Baselines: &sched.Scheduler{}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tight
	cfg.Metrics = metrics.New(0)
	tenantRegs := map[string]*metrics.Registry{}
	metered, err := Run(Config{
		Engine: cfg, Jobs: jobs, Baselines: &sched.Scheduler{},
		TenantMetrics: func(label string) *metrics.Registry {
			r := metrics.New(0)
			tenantRegs[label] = r
			return r
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tenantRegs) != len(jobs) {
		t.Fatalf("TenantMetrics supplied %d registries, want %d", len(tenantRegs), len(jobs))
	}
	for label, r := range tenantRegs {
		if r.Samples() == 0 {
			t.Errorf("tenant %s registry took no samples", label)
		}
	}
	normalizeObs(metered, bare)
	if !reflect.DeepEqual(metered, bare) {
		t.Error("metrics perturbed the cluster run")
	}
}

// TestPerTenantVerifyAtScale is the paper-scale bit-exactness test: a
// contended four-tenant mix (three CA variants plus a 2LM neighbour, all
// movement-heavy on a tight fast tier) traced end-to-end. Every CA lane
// must decompose its tenant's aggregates exactly, and the per-tenant
// attributed traffic must partition the platform counters bit-for-bit.
func TestPerTenantVerifyAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run")
	}
	cfg := tight
	cfg.Trace = true
	res, err := Run(Config{
		Engine: cfg,
		Jobs: []Job{
			{Name: "t0", Model: movementHeavy(), Mode: "CA:LMP"},
			{Name: "t1", Model: movementHeavy(), Mode: "CA:LM", Arrival: 0.001},
			{Name: "t2", Model: movementHeavy(), Mode: "CA:0", Arrival: 0.002},
			{Name: "t3", Model: movementHeavy(), Mode: "2LM:M", Arrival: 0.003},
		},
		Baselines: &sched.Scheduler{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tracing.VerifyLanes(res.Trace); err != nil {
		t.Fatal(err)
	}
	c := tracing.FindCluster(res.Trace)
	if c == nil {
		t.Fatal("trace has no cluster record")
	}
	if len(c.Tenants) != 4 {
		t.Fatalf("cluster record has %d tenants, want 4", len(c.Tenants))
	}
	_, lanes := tracing.Lanes(res.Trace)
	for _, tn := range res.Tenants {
		lane := lanes[tn.Label]
		if len(lane) == 0 {
			t.Errorf("%s: empty lane", tn.Name)
			continue
		}
		if tn.Mode == "2LM:M" {
			continue // 2LM emits no engine-side trace; covered by the partition check
		}
		tot := tracing.FindTotals(lane)
		if tot == nil {
			t.Errorf("%s: CA lane has no totals record", tn.Name)
			continue
		}
		if err := tracing.Verify(lane); err != nil {
			t.Errorf("%s: %v", tn.Name, err)
		}
	}
	// The cluster record repeats the fairness metrics the result reports.
	for i, tn := range res.Tenants {
		if c.Tenants[i].InducedEvictions != tn.InducedEvictions {
			t.Errorf("%s: cluster record induced evictions %d != result %d",
				tn.Name, c.Tenants[i].InducedEvictions, tn.InducedEvictions)
		}
	}
}

// TestMixSeeded: the generator is deterministic per seed and varies
// across seeds.
func TestMixSeeded(t *testing.T) {
	a, b := Mix(42, 6), Mix(42, 6)
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Mode != b[i].Mode || a[i].Arrival != b[i].Arrival {
			t.Fatalf("job %d differs across identical seeds", i)
		}
		am, err := a[i].Build()
		if err != nil {
			t.Fatal(err)
		}
		bm, err := b[i].Build()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(am, bm) {
			t.Fatalf("job %d models differ across identical seeds", i)
		}
	}
	other := Mix(43, 6)
	same := true
	for i := range a {
		if a[i].Mode != other[i].Mode || a[i].Arrival != other[i].Arrival {
			same = false
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical mixes")
	}
}

func ExampleRun() {
	res, err := Run(Config{
		Engine: engine.Config{FastCapacity: 64 * units.MB, SlowCapacity: units.GB, Iterations: 2},
		Jobs: []Job{
			{Name: "a", Model: models.MLP(512, []int{1024}, 10, 64), Mode: "CA:LMP"},
			{Name: "b", Model: models.MLP(512, []int{1024}, 10, 64), Mode: "2LM:M"},
		},
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res.Tenants), "tenants finished")
	// Output: 2 tenants finished
}
