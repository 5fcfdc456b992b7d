// Package cluster multiplexes N engine jobs onto one shared memsim
// platform under a single global virtual clock, then scales out to M
// platforms behind a Router with pluggable admission/placement policies.
//
// The simulator leans on the engine's event-driven core: every job is an
// engine.Stepper whose events (one kernel with its hints and annotations,
// or one iteration boundary) are dispatched one at a time in timestamp
// order. Each tenant carries a private event timestamp — its arrival time
// plus the virtual time its own events have consumed — and the dispatch
// loop always runs the tenant with the smallest timestamp, breaking ties
// by job index. The result is the deterministic merge of N solo event
// streams onto one platform: tenants interleave in proportion to their
// event durations, and a cluster with a single tenant replays the solo
// engine run byte-for-byte (the property the N=1 identity tests pin).
//
// Tenants share the platform's memory system but keep private runtimes:
// each job gets its own data manager, policy instance and GC over private
// allocators, while per-tier alloc.Quota budgets arbitrate the shared
// device capacity — the aggregate bytes held by all tenants can never
// exceed the device, and a tenant squeezed by its neighbours sees
// allocation exhaustion exactly as it would on a smaller device. The copy
// engine is genuinely shared: one tenant's queued movement delays
// another's waits, which is the interference channel the fairness metrics
// (slowdown vs. solo, fast-tier share, induced evictions) measure.
package cluster

import (
	"errors"
	"fmt"
	"strings"

	"cachedarrays/internal/alloc"
	"cachedarrays/internal/engine"
	"cachedarrays/internal/invariants"
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/sched"
	"cachedarrays/internal/tracing"
)

// Job describes one tenant submitted to a cluster.
type Job struct {
	// Name labels the tenant in results and errors ("job<i>" if empty).
	Name string
	// Model is the pre-built workload. Leave nil and set Build to defer
	// construction until the job is placed (router runs build only the
	// jobs a platform actually admits).
	Model *models.Model
	// Build constructs the job's model when Model is nil. It must be
	// deterministic.
	Build func() (*models.Model, error)
	// Mode is the operating mode (any engine.Normalize spelling).
	Mode string
	// Arrival is the job's arrival offset in virtual seconds: the origin
	// of its private event timeline, so jobs arriving later merge later.
	// It biases the merge order only — the global clock never idles (no
	// events, no time), so arrival offsets do not appear in clock-based
	// timings. That is what keeps a lone tenant byte-identical to the
	// solo engine run for any arrival.
	Arrival float64
	// Iterations overrides the shared config's iteration count for this
	// job (0 keeps it). Platform-shaping fields cannot vary per job.
	Iterations int
}

// Config parameterizes one shared-platform cluster run.
type Config struct {
	// Engine is the shared platform description plus the per-run knobs
	// every tenant inherits. With more than one job, FaultSpec is
	// rejected (the platform has a single injector slot per device),
	// Trace multiplexes every tenant onto one tagged recorder (the
	// Result's Trace carries per-tenant lanes plus a trailing cluster
	// record), and Metrics becomes the cluster-level registry: the
	// per-tenant fairness series register there instead of the engine's
	// solo series. With exactly one job every field passes through
	// untouched.
	Engine engine.Config
	// Jobs are the tenants.
	Jobs []Job
	// Baselines, when non-nil, computes each tenant's solo run through
	// the shared scheduler/result cache and fills the fairness fields
	// (SoloTime, Slowdown, InducedEvictions). Solo runs strip
	// instrumentation that does not perturb results, so they cache.
	Baselines *sched.Scheduler
	// TenantMetrics, when non-nil on a multi-tenant run, supplies each
	// tenant's private metrics registry (keyed by the tenant's sanitized
	// label): the tenant's solo engine series land there instead of being
	// dropped, and the caller exports them with tenant="..." labels. The
	// cluster's fan-out hook drives sampling.
	TenantMetrics func(label string) *metrics.Registry
	// Sched, when non-nil, memoizes the whole cluster run through the
	// scheduler's content-addressed result cache and single-flight group:
	// an identical (platform, job list, baselines) run is served
	// reflect.DeepEqual-identical from the cache instead of re-simulated,
	// and concurrent identical runs simulate once. Instrumented runs —
	// tracing, fault injection, invariant audits, metrics (cluster-level
	// or TenantMetrics) — always bypass, exactly like solo engine cells.
	Sched *sched.Scheduler
}

// Tenant is one job's outcome and fairness metrics.
type Tenant struct {
	Name string
	// Label is the sanitized form of Name (lowercase, [a-z0-9.-], see
	// runcfg.Name): the tenant's identity in metric series names
	// (cluster_<label>_*), Prometheus tenant="..." labels and trace
	// lanes. Unique across the cluster.
	Label   string
	Mode    string
	Arrival float64

	// Start and Finish bound the tenant's active span on the global
	// clock: Start is taken after setup (persistent allocation), matching
	// the solo run's measurement origin; Finish after its last event.
	// The global clock only moves while events run, so these are not
	// comparable to Arrival, which lives on the tenant's private merge
	// timeline.
	Start  float64
	Finish float64
	// Busy is the virtual time the tenant's own events consumed; Wait is
	// the remainder of the active span — time the platform spent running
	// other tenants' events.
	Busy float64
	Wait float64
	// FirstDispatch is the global dispatch sequence number of the
	// tenant's first event — the observable the tie-breaking regression
	// tests pin.
	FirstDispatch int
	// Steps counts the tenant's dispatched events.
	Steps int

	// FastBytes/SlowBytes are the device traffic attributed to this
	// tenant (exact: only one tenant runs at a time, and movement is
	// charged when its owner dispatches). FastShare is this tenant's
	// fraction of all fast-tier traffic.
	FastBytes int64
	SlowBytes int64
	FastShare float64

	// SoloTime is the tenant's solo total (sum of iteration times) from
	// the baseline run; Slowdown is the active span over SoloTime. Both
	// zero when Config.Baselines is nil. InducedEvictions is the
	// tenant's evictions beyond its solo count — co-tenant pressure made
	// visible.
	SoloTime         float64
	Slowdown         float64
	InducedEvictions int64

	// Result is the tenant's full engine result.
	Result *engine.Result
}

// Result is a cluster run's outcome.
type Result struct {
	Tenants []Tenant
	// Makespan is the global clock when the last tenant finished.
	Makespan float64
	// Dispatches counts dispatched events across all tenants.
	Dispatches int
	// Trace is the multiplexed execution trace of a traced multi-tenant
	// run: every tenant's events tagged with its lane plus a trailing
	// cluster record (tracing.VerifyLanes checks it). A traced N=1 run
	// keeps its trace on the tenant's own Result instead — that path is
	// byte-identical to the solo engine. Excluded from JSON output: at
	// paper scale it dwarfs the results (export it with WriteJSONL).
	Trace []tracing.Event `json:"-"`
}

// tenant is the dispatch loop's per-job state.
type tenant struct {
	// idx is the job's submission index: the dispatch tie-breaker (equal
	// timestamps run in job order) and the key the heap orders by.
	idx  int
	name string
	// label is the sanitized (filesystem/label/series-safe) form of name:
	// the tenant's identity in metric series names, Prometheus labels and
	// trace lanes. Unique across the cluster (prepare rejects collisions).
	label string
	mode  string
	model *models.Model
	cfg   engine.Config
	job   Job

	st       engine.Stepper
	finished bool
	// next is the private event timestamp: arrival + the virtual time
	// this tenant's events have consumed. The dispatch loop runs the
	// smallest next first.
	next float64

	start, finish float64
	busy          float64
	firstDispatch int
	steps         int
	// fast/slow accumulate the device-counter deltas of this tenant's
	// dispatch windows: the traffic attribution behind FastBytes/SlowBytes,
	// the per-tenant series and the trace totals (exact — one tenant runs
	// at a time).
	fast   memsim.Counters
	slow   memsim.Counters
	lane   int // mux lane index (traced multi-tenant runs)
	result *engine.Result
}

// Run executes the cluster: all jobs on one shared platform. When
// cfg.Sched is set and the run carries no instrumentation, the whole
// cluster result is memoized in the scheduler's content-addressed cache
// (see Key) and concurrent identical runs are single-flighted.
func Run(cfg Config) (*Result, error) {
	tenants, ecfg, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	if key := cacheKey(cfg, tenants, ecfg); key != "" {
		v, _, err := cfg.Sched.Memo(key, decodeResult, func() (any, error) {
			return simulate(cfg, tenants, ecfg)
		})
		if err != nil {
			return nil, err
		}
		return v.(*Result), nil
	}
	return simulate(cfg, tenants, ecfg)
}

// RunScanReference executes the cluster with the pre-heap O(N)
// linear-scan dispatcher kept as the executable reference (the
// alloc.Reference pattern). It always simulates — no cache, no single
// flight — so differential tests and the BENCH_cluster heap-vs-scan
// series compare two fresh simulations.
func RunScanReference(cfg Config) (*Result, error) {
	tenants, ecfg, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	return simulateQueued(cfg, tenants, ecfg, newScanQueue(tenants))
}

// simulate is the uncached execution path: one fresh simulation through
// the production heap dispatcher.
func simulate(cfg Config, tenants []*tenant, ecfg engine.Config) (*Result, error) {
	return simulateQueued(cfg, tenants, ecfg, newTenantHeap(tenants))
}

func simulateQueued(cfg Config, tenants []*tenant, ecfg engine.Config, q dispatchQueue) (*Result, error) {
	multi := len(tenants) > 1
	p, release := engine.AcquirePlatform(ecfg)
	var mux *tracing.Mux
	if multi && ecfg.Trace {
		// The cluster claims the platform's one tracer slot: the mux tags
		// every event with the currently-dispatched tenant's lane, and
		// the steppers thread the same recorder through their own layers
		// (Env.Tracer) instead of installing private ones.
		mux = tracing.NewMux(p.Clock.Now)
		for _, t := range tenants {
			t.lane = mux.Lane(t.label)
		}
		p.Clock.Tracer = mux.Recorder()
		p.Copier.Tracer = mux.Recorder()
	}
	if err := dispatch(tenants, ecfg, p, mux, q); err != nil {
		return nil, err // abandon the platform in its failed state
	}
	res := collect(tenants, p.Clock.Now())
	if multi && ecfg.Metrics.Enabled() {
		ecfg.Metrics.SetMeta("mode", "cluster")
		ecfg.Metrics.SetMeta("model", fmt.Sprintf("%d-tenant", len(cfg.Jobs)))
		ecfg.Metrics.Flush(p.Clock.Now())
	}
	// Snapshot the whole-platform counters before release resets them:
	// the cluster trace record pins the per-tenant attribution to them.
	fc, sc := p.Fast.Counters(), p.Slow.Counters()
	fastDev, slowDev := p.Fast.Name, p.Slow.Name
	release()
	if cfg.Baselines != nil {
		if err := fairness(res, tenants, cfg.Baselines); err != nil {
			return nil, err
		}
	}
	if mux != nil {
		// Emitted after fairness so the record carries the solo-baseline
		// metrics; the mux no longer touches the (released) platform.
		mux.EmitCluster(clusterTotals(res, tenants, fc, sc, fastDev, slowDev))
		res.Trace = mux.Events()
	}
	return res, nil
}

// clusterTotals assembles the trailing trace record from the collected
// results and the dispatch loop's per-tenant traffic attribution.
func clusterTotals(res *Result, tenants []*tenant, fc, sc memsim.Counters, fastDev, slowDev string) tracing.ClusterTotals {
	c := tracing.ClusterTotals{
		FastDevice:     fastDev,
		SlowDevice:     slowDev,
		FastReadBytes:  fc.ReadBytes,
		FastWriteBytes: fc.WriteBytes,
		SlowReadBytes:  sc.ReadBytes,
		SlowWriteBytes: sc.WriteBytes,
		Makespan:       res.Makespan,
		Dispatches:     res.Dispatches,
	}
	for i, t := range tenants {
		tn := res.Tenants[i]
		c.Tenants = append(c.Tenants, tracing.TenantTotals{
			Name:             t.label,
			Mode:             t.mode,
			Arrival:          tn.Arrival,
			Start:            tn.Start,
			Finish:           tn.Finish,
			Busy:             tn.Busy,
			Wait:             tn.Wait,
			Steps:            tn.Steps,
			SoloTime:         tn.SoloTime,
			Slowdown:         tn.Slowdown,
			InducedEvictions: tn.InducedEvictions,
			FastReadBytes:    t.fast.ReadBytes,
			FastWriteBytes:   t.fast.WriteBytes,
			SlowReadBytes:    t.slow.ReadBytes,
			SlowWriteBytes:   t.slow.WriteBytes,
		})
	}
	return c
}

// sanitizeLabel folds a tenant name to its label form — lowercase, with
// anything outside [a-z0-9.-] folded to '_' — mirroring runcfg.Name so a
// tenant's metric series names, Prometheus labels, trace lanes and
// output-file suffixes all agree. Commas and spaces in particular would
// corrupt Prometheus label strings and wide-CSV headers.
func sanitizeLabel(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// prepare validates the config and resolves every job's model, mode and
// per-tenant config before any simulation state exists.
func prepare(cfg Config) ([]*tenant, engine.Config, error) {
	ecfg := cfg.Engine.Canonical()
	if len(cfg.Jobs) == 0 {
		return nil, ecfg, errors.New("cluster: no jobs")
	}
	multi := len(cfg.Jobs) > 1
	tenants := make([]*tenant, len(cfg.Jobs))
	labels := make(map[string]int, len(cfg.Jobs))
	for i, j := range cfg.Jobs {
		mode, err := engine.Normalize(j.Mode)
		if err != nil {
			return nil, ecfg, fmt.Errorf("cluster: job %d: %w", i, err)
		}
		m := j.Model
		if m == nil {
			if j.Build == nil {
				return nil, ecfg, fmt.Errorf("cluster: job %d has neither Model nor Build", i)
			}
			if m, err = j.Build(); err != nil {
				return nil, ecfg, fmt.Errorf("cluster: job %d: %w", i, err)
			}
			if m == nil {
				return nil, ecfg, fmt.Errorf("cluster: job %d: Build returned a nil model", i)
			}
		}
		name := j.Name
		if name == "" {
			name = fmt.Sprintf("job%d", i)
		}
		if multi && ecfg.FaultSpec != "" {
			// One injector slot per device: a shared schedule would fire
			// for whichever tenant happens to be dispatched, making the
			// faults unattributable.
			return nil, ecfg, fmt.Errorf(
				"cluster: job %d (%s): fault injection requires a dedicated platform (one injector slot per device); run the faulted job solo",
				i, name)
		}
		label := sanitizeLabel(name)
		if prev, ok := labels[label]; ok {
			return nil, ecfg, fmt.Errorf(
				"cluster: job %d (%s) and job %d (%s) collide on tenant label %q; give the jobs distinct names",
				prev, cfg.Jobs[prev].Name, i, j.Name, label)
		}
		labels[label] = i
		jobCfg := ecfg
		if j.Iterations > 0 {
			jobCfg.Iterations = j.Iterations
		}
		if multi {
			// The shared registry belongs to the cluster (fairness
			// series); tenants must not register their solo series into
			// it — series names would collide. A TenantMetrics supplier
			// gives each tenant a private registry instead.
			jobCfg.Metrics = nil
			if cfg.TenantMetrics != nil {
				jobCfg.Metrics = cfg.TenantMetrics(label)
			}
		}
		if j.Arrival < 0 {
			return nil, ecfg, fmt.Errorf("cluster: job %d: negative arrival %g", i, j.Arrival)
		}
		tenants[i] = &tenant{
			idx: i, name: name, label: label, mode: mode, model: m, cfg: jobCfg, job: j,
			next: j.Arrival,
		}
	}
	return tenants, ecfg, nil
}

// dispatch is the timestamp-ordered event loop: repeatedly run the
// unfinished tenant with the smallest private timestamp (ties broken by
// job index), until every tenant has finished. Selection comes from the
// queue — the production heap or the linear-scan reference, which the
// differential tests prove interchangeable. The per-dispatch hot path is
// allocation-free: the queue is pre-sized, counter snapshots are value
// copies, and the only closures (traffic attribution, the clock's hook
// fan-out) are built once per run, never per step.
func dispatch(tenants []*tenant, ecfg engine.Config, p *memsim.Platform, mux *tracing.Mux, q dispatchQueue) error {
	env := &engine.Env{
		Platform:  p,
		FastQuota: alloc.NewQuota(p.Fast.Capacity),
		SlowQuota: alloc.NewQuota(p.Slow.Capacity),
	}
	// active is the currently-dispatched tenant: the owner of every event
	// and byte the platform produces until the next dispatch decision.
	var active *tenant
	if mux != nil {
		env.Tracer = mux.Recorder()
		env.Traffic = func() (int64, int64, int64, int64) {
			return active.fast.ReadBytes, active.fast.WriteBytes,
				active.slow.ReadBytes, active.slow.WriteBytes
		}
	}
	// The clock has one OnAdvance hook and one Metrics slot; the cluster
	// claims the hook and fans each advance out to every tenant's
	// invariant checker and metrics registry.
	var checkers []*invariants.Checker
	var regs []*metrics.Registry
	env.OnChecker = func(c *invariants.Checker) { checkers = append(checkers, c) }
	env.OnRegistry = func(r *metrics.Registry) { regs = append(regs, r) }
	p.Clock.OnAdvance = func(now, dt float64) {
		for _, c := range checkers {
			c.OnAdvance(now, dt)
		}
		for _, r := range regs {
			r.Tick(now, dt)
		}
	}
	dispatches := 0
	if len(tenants) > 1 && ecfg.Metrics.Enabled() {
		registerClusterSeries(ecfg.Metrics, tenants, p, env, &dispatches)
		regs = append(regs, ecfg.Metrics)
	}

	for {
		t := q.peek()
		if t == nil {
			return nil
		}
		active = t
		if mux != nil {
			// Dispatch boundary: subsequent events belong to this
			// tenant's lane (the mux restores its iteration/kernel/hint
			// context alongside the tag).
			mux.Switch(t.lane)
		}
		if t.st == nil {
			// First dispatch: build the stepper now, so the job's setup
			// (persistent allocation, instrumentation wiring) happens at
			// its place in the merged order, atomically with its first
			// event. Setup traffic is attributed to the tenant; Start is
			// taken after setup, matching the solo measurement origin.
			fb, sb := p.Fast.Counters(), p.Slow.Counters()
			st, err := engine.NewStepper(t.model, t.mode, t.cfg, env)
			if err != nil {
				return fmt.Errorf("cluster: %s: %w", t.name, err)
			}
			t.st = st
			t.start = p.Clock.Now()
			t.firstDispatch = dispatches
			t.fast.Add(p.Fast.Counters().Sub(fb))
			t.slow.Add(p.Slow.Counters().Sub(sb))
		}
		stepped := false
		if !t.st.Done() {
			fb, sb := p.Fast.Counters(), p.Slow.Counters()
			before := p.Clock.Now()
			if _, err := t.st.Step(); err != nil {
				return fmt.Errorf("cluster: %s: %w", t.name, err)
			}
			dt := p.Clock.Now() - before
			t.busy += dt
			t.next += dt
			t.fast.Add(p.Fast.Counters().Sub(fb))
			t.slow.Add(p.Slow.Counters().Sub(sb))
			t.steps++
			dispatches++
			stepped = true
		}
		if t.st.Done() {
			res, err := t.st.Finish()
			if err != nil {
				return fmt.Errorf("cluster: %s: %w", t.name, err)
			}
			t.result = res
			t.finished = true
			t.finish = p.Clock.Now()
			q.remove()
		} else if stepped {
			q.bumped()
		}
	}
}

// collect assembles the tenants' outcomes.
func collect(tenants []*tenant, makespan float64) *Result {
	res := &Result{Makespan: makespan}
	var totalFast int64
	for _, t := range tenants {
		totalFast += t.fast.TotalBytes()
		res.Dispatches += t.steps
	}
	for _, t := range tenants {
		out := Tenant{
			Name: t.name, Label: t.label, Mode: t.mode, Arrival: t.job.Arrival,
			Start: t.start, Finish: t.finish, Busy: t.busy,
			Wait:          t.finish - t.start - t.busy,
			FirstDispatch: t.firstDispatch, Steps: t.steps,
			FastBytes: t.fast.TotalBytes(), SlowBytes: t.slow.TotalBytes(),
			Result: t.result,
		}
		if totalFast > 0 {
			out.FastShare = float64(t.fast.TotalBytes()) / float64(totalFast)
		}
		res.Tenants = append(res.Tenants, out)
	}
	return res
}

// fairness runs each tenant's solo baseline through the scheduler (and
// its result cache) and fills the interference metrics.
func fairness(res *Result, tenants []*tenant, s *sched.Scheduler) error {
	cells := make([]sched.Cell, len(tenants))
	for i, t := range tenants {
		cells[i] = sched.Cell{
			Name:  t.name + "/solo",
			Model: t.model,
			Mode:  t.mode,
			Cfg:   baselineConfig(t.cfg),
		}
	}
	solo, err := s.Run(cells)
	if err != nil {
		return fmt.Errorf("cluster: baselines: %w", err)
	}
	for i := range tenants {
		tn := &res.Tenants[i]
		var total float64
		for _, it := range solo[i].Iterations {
			total += it.Time
		}
		tn.SoloTime = total
		if total > 0 {
			tn.Slowdown = (tn.Finish - tn.Start) / total
		}
		if d := tn.Result.Policy.Evictions - solo[i].Policy.Evictions; d > 0 {
			tn.InducedEvictions = d
		}
	}
	return nil
}

// baselineConfig strips the instrumentation that never perturbs results
// (so solo baselines stay cacheable) while keeping everything that does.
func baselineConfig(cfg engine.Config) engine.Config {
	cfg.Metrics = nil
	cfg.Trace = false
	cfg.TraceEvents = 0
	cfg.CheckEveryAdvance = false
	cfg.CheckInvariants = false
	return cfg
}

// registerClusterSeries registers the cluster-level series: per-tenant
// fairness series (keyed by the tenant's sanitized label — prepare
// guarantees uniqueness), the shared-tier quota/contention series, the
// dispatch counter and the shared platform's device series.
func registerClusterSeries(reg *metrics.Registry, tenants []*tenant,
	p *memsim.Platform, env *engine.Env, dispatches *int) {

	for _, t := range tenants {
		pre := "cluster_" + t.label + "_"
		reg.CounterFunc(pre+"fast_bytes", func() float64 { return float64(t.fast.TotalBytes()) })
		reg.CounterFunc(pre+"slow_bytes", func() float64 { return float64(t.slow.TotalBytes()) })
		reg.CounterFunc(pre+"busy_seconds", func() float64 { return t.busy })
		reg.CounterFunc(pre+"wait_seconds", func() float64 {
			// Time the platform spent on other tenants while this one
			// was live: the live form of the post-run Wait column.
			if t.st == nil {
				return 0
			}
			end := p.Clock.Now()
			if t.finished {
				end = t.finish
			}
			if w := end - t.start - t.busy; w > 0 {
				return w
			}
			return 0
		})
		reg.CounterFunc(pre+"events", func() float64 { return float64(t.steps) })
		reg.Gauge(pre+"active", func() float64 {
			if t.st != nil && !t.finished {
				return 1
			}
			return 0
		})
	}
	reg.Gauge("cluster_active_tenants", func() float64 {
		n := 0
		for _, t := range tenants {
			if t.st != nil && !t.finished {
				n++
			}
		}
		return float64(n)
	})
	reg.CounterFunc("cluster_dispatches", func() float64 { return float64(*dispatches) })
	quota := func(tier string, q *alloc.Quota) {
		reg.Gauge("cluster_"+tier+"_quota_used_bytes", func() float64 { return float64(q.Used()) })
		reg.Gauge("cluster_"+tier+"_quota_avail_bytes", func() float64 { return float64(q.Avail()) })
		reg.CounterFunc("cluster_"+tier+"_quota_rejections", func() float64 { return float64(q.Rejections()) })
		reg.CounterFunc("cluster_"+tier+"_quota_rejected_bytes", func() float64 { return float64(q.RejectedBytes()) })
	}
	quota("fast", env.FastQuota)
	quota("slow", env.SlowQuota)
	// The shared devices' traffic/utilization series: on a multi-tenant
	// run no solo stepper owns the cluster registry, so the cluster
	// registers them itself (tenant registries carry their own copy —
	// same shared devices, separate Registry instances).
	engine.RegisterPlatformMetrics(reg, p)
}
