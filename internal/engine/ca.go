package engine

import (
	"fmt"

	"cachedarrays/internal/alloc"
	"cachedarrays/internal/dm"
	"cachedarrays/internal/faults"
	"cachedarrays/internal/gcsim"
	"cachedarrays/internal/invariants"
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/models"
	"cachedarrays/internal/policy"
	"cachedarrays/internal/trace"
	"cachedarrays/internal/tracing"
)

// NVRAMOnly as a FastCapacity requests a zero-DRAM run (the right edge of
// Fig. 7). A plain zero means "paper default".
const NVRAMOnly = -1

// resolveCapacity maps the Config convention (0 = default, NVRAMOnly = 0
// bytes) to a concrete byte count.
func resolveCapacity(c, def int64) int64 {
	switch {
	case c == NVRAMOnly:
		return 0
	case c == 0:
		return def
	default:
		return c
	}
}

// newCAModeStepper builds a run under the CachedArrays runtime in one of
// the paper's static operating modes.
func newCAModeStepper(model *models.Model, mode policy.Mode, cfg Config, env *Env) (*caStepper, error) {
	cfg = cfg.withDefaults()
	p, release := env.acquire(cfg)
	m, err := newManager(p, cfg, env)
	if err != nil {
		return nil, err
	}
	gc := gcsim.New(m, p.Clock)
	pcfg := policy.ConfigFor(mode)
	pcfg.PreferCleanVictims = cfg.PreferCleanVictims
	pol := policy.NewTieredConfig(m, pcfg, mode.String(), gc)
	return newCAStepper(model, pol, gc, p, m, cfg, release, env)
}

// newManager builds the data manager with the configured heap allocator,
// wrapped with the environment's shared capacity budgets when tenants
// share the platform.
func newManager(p *memsim.Platform, cfg Config, env *Env) (*dm.Manager, error) {
	mk := func(capacity int64) (alloc.Allocator, error) {
		switch cfg.Allocator {
		case "", "firstfit":
			return alloc.NewFreeList(capacity, alloc.FirstFit), nil
		case "bestfit":
			return alloc.NewFreeList(capacity, alloc.BestFit), nil
		case "buddy":
			// Round capacity down to a power of two (the buddy
			// allocator's requirement); the lost tail models the
			// rounding a real deployment would accept.
			c := int64(1)
			for c*2 <= capacity {
				c *= 2
			}
			if capacity == 0 {
				return alloc.NewFreeList(0, alloc.FirstFit), nil
			}
			return alloc.NewBuddy(c, 0)
		default:
			return nil, fmt.Errorf("engine: unknown allocator %q", cfg.Allocator)
		}
	}
	fast, err := mk(p.Fast.Capacity)
	if err != nil {
		return nil, err
	}
	slow, err := mk(p.Slow.Capacity)
	if err != nil {
		return nil, err
	}
	return dm.NewWithAllocators(p, env.limitFast(fast), env.limitSlow(slow)), nil
}

// caStepper is the event-driven CachedArrays run: construction performs
// setup (instrumentation wiring, persistent-tensor allocation), every
// Step executes one kernel event or one iteration boundary, and Finish
// produces the Result. Driven to completion it is byte-identical to the
// historical straight-line loop; dispatched by the cluster simulator its
// events interleave with other tenants' on the shared platform.
//
// pol is any policy runtime — the plain Tiered for the paper modes, a
// wrapped adaptive stack for the CA:OG/CA:TG variants. The run's series
// register into cfg.Metrics (nil records nothing). release returns the
// platform to the pool and runs only on the success path (error paths
// abandon the platform in whatever state the failure left it).
type caStepper struct {
	model   *models.Model
	pol     policy.Runtime
	gc      *gcsim.Collector
	p       *memsim.Platform
	m       *dm.Manager
	cfg     Config
	release func()

	sched  *trace.Schedule
	res    *Result
	events *dm.EventLog
	tr     *tracing.Recorder
	inj    *faults.Injector
	chk    *invariants.Checker
	rm     runMetrics
	objs   []*dm.Object
	// sharedTrace marks that tr is the cluster's multiplexed recorder: the
	// stepper emits into it but does not own it — Finish leaves the events
	// out of the Result (the owner assembles the full trace) and sources
	// the trace totals' device traffic from the owner's per-tenant
	// attribution instead of the whole-platform counters.
	sharedTrace bool
	traffic     func() (fr, fw, sr, sw int64)

	// Iteration-loop state.
	iter               int
	ki                 int
	inIter             bool
	it                 IterationMetrics
	iterStart          float64
	fastBase, slowBase memsim.Counters
	gcBase             float64
	sampling           bool
	// readyAt tracks, per tensor, when its in-flight asynchronous move
	// completes; kernels wait on their arguments' entries.
	readyAt map[int]float64

	done     bool
	finished bool
}

// newCAStepper performs the run's setup: instrumentation threading and
// the persistent-tensor allocations (the paper pre-allocates and
// first-touches all heaps before measuring, so setup traffic is excluded
// from iteration metrics).
func newCAStepper(model *models.Model, pol policy.Runtime, gc *gcsim.Collector,
	p *memsim.Platform, m *dm.Manager, cfg Config, release func(), env *Env) (*caStepper, error) {

	sched := trace.New(model)
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	s := &caStepper{
		model: model, pol: pol, gc: gc, p: p, m: m, cfg: cfg,
		release: release, sched: sched,
		res: &Result{ModelName: model.Name, Mode: pol.Name(), Config: cfg},
	}
	s.res.recordPeaks(p)
	if cfg.TraceEvents > 0 {
		s.events = dm.NewEventLog(cfg.TraceEvents)
		m.SetEventLog(s.events)
	}
	// The execution-trace recorder threads through every layer; nil (the
	// default) records nothing and costs the instrumented paths a single
	// branch each.
	if cfg.Trace {
		if env.shared() && env.Tracer != nil {
			// The cluster owns the platform's tracer slot (its mux is
			// already installed there, tagging events by tenant); this
			// stepper only threads the shared recorder through its own
			// layers.
			s.tr = env.Tracer
			s.sharedTrace = true
			s.traffic = env.Traffic
		} else {
			s.tr = tracing.New(p.Clock.Now)
			p.Clock.Tracer = s.tr
			p.Copier.Tracer = s.tr
		}
		m.SetTracer(s.tr)
		pol.SetTracer(s.tr)
		gc.SetTracer(s.tr)
	}
	// The fault injector threads through the same layers as the tracer and
	// follows the same discipline: absent a schedule, every hook stays nil
	// and the run is byte-identical to an uninstrumented build.
	if cfg.FaultSpec != "" {
		fsched, err := faults.Parse(cfg.FaultSpec)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		s.inj = faults.New(fsched, p.Clock.Now)
		s.inj.SetTracer(s.tr)
		p.Fast.Faults = s.inj
		p.Slow.Faults = s.inj
		p.Copier.Faults = s.inj
		m.SetFaults(s.inj)
	}
	if cfg.CheckEveryAdvance {
		s.chk = invariants.New(m, p).WithPolicy(pol)
		env.attachChecker(s.chk)
	}
	// The metrics registry threads through the same layers with the same
	// nil-safety discipline: every layer registers its series, the clock
	// (or the cluster's fan-out hook) drives sampling, and a nil registry
	// records nothing.
	reg := cfg.Metrics
	registerPlatformMetrics(reg, p)
	env.attachRegistry(reg, p)
	m.RegisterMetrics(reg)
	pol.RegisterMetrics(reg)
	gc.RegisterMetrics(reg)
	s.rm = newRunMetrics(reg)
	s.objs = make([]*dm.Object, len(model.Tensors))

	for _, id := range sched.Persistent {
		o, err := pol.NewObject(model.Tensors[id].Bytes)
		if err != nil {
			return nil, fmt.Errorf("engine: allocating persistent tensor %s: %w",
				model.Tensors[id].Name, err)
		}
		s.objs[id] = o
		s.tr.Bind(o.ID(), model.Tensors[id].Name, model.Tensors[id].Bytes)
	}
	if cfg.Iterations <= 0 {
		s.done = true
	}
	return s, nil
}

// Done reports whether every iteration has completed.
func (s *caStepper) Done() bool { return s.done }

// Step executes the next event: one kernel (with its hints, transient
// allocations and post-kernel annotations) or one iteration boundary.
func (s *caStepper) Step() (float64, error) {
	if s.done {
		return s.p.Clock.Now(), fmt.Errorf("engine: step after run completed")
	}
	if !s.inIter {
		s.beginIter()
		s.inIter = true
	}
	if s.ki < len(s.model.Kernels) {
		if err := s.kernelStep(); err != nil {
			return s.p.Clock.Now(), err
		}
		s.ki++
		return s.p.Clock.Now(), nil
	}
	if err := s.endIter(); err != nil {
		return s.p.Clock.Now(), err
	}
	s.iter++
	s.ki = 0
	s.inIter = false
	if s.iter >= s.cfg.Iterations {
		s.done = true
	}
	return s.p.Clock.Now(), nil
}

// beginIter opens an iteration's measurement window.
func (s *caStepper) beginIter() {
	s.tr.BeginIter(s.iter)
	s.iterStart = s.p.Clock.Now()
	s.fastBase, s.slowBase = s.p.Fast.Counters(), s.p.Slow.Counters()
	s.gcBase = s.gc.Stats().PauseTime
	s.it = IterationMetrics{}
	s.sampling = s.cfg.SampleHeap && s.iter == s.cfg.Iterations-1
	if s.sampling {
		s.res.HeapSamples = s.res.HeapSamples[:0]
	}
	s.readyAt = nil
	if s.cfg.AsyncMovement {
		s.readyAt = make(map[int]float64, 64)
	}
}

// kernelStep executes kernel s.ki: transient allocations, semantic hints
// (the policy may move data in response), the roofline kernel time with
// its arguments pinned, and the post-kernel archive/retire annotations.
func (s *caStepper) kernelStep() error {
	p, m, pol, model, iter, ki := s.p, s.m, s.pol, s.model, s.iter, s.ki
	k := &model.Kernels[ki]
	s.tr.BeginKernel(ki, k.Name)
	hintStart := p.Clock.Now()

	// Allocate transients whose first use is this kernel.
	for _, id := range s.sched.AllocBefore[ki] {
		o, err := pol.NewObject(model.Tensors[id].Bytes)
		if err != nil {
			return fmt.Errorf("engine: iter %d kernel %s: allocating %s: %w",
				iter, k.Name, model.Tensors[id].Name, err)
		}
		s.objs[id] = o
		s.tr.Bind(o.ID(), model.Tensors[id].Name, model.Tensors[id].Bytes)
	}
	// Emit the semantic hints; the policy may move data in
	// response. With synchronous movement the application
	// stalls here; with an asynchronous mover the copies
	// queue and only the data dependency is recorded.
	hint := func(id int, write bool) {
		o := s.objs[id]
		if o == nil || o.Retired() {
			return
		}
		before := p.Copier.BusyUntil()
		if write {
			pol.WillWrite(o)
		} else {
			pol.WillRead(o)
		}
		// Record the dependency only when this hint
		// actually queued movement for this object;
		// unrelated background writebacks do not block
		// the kernel.
		if after := p.Copier.BusyUntil(); s.readyAt != nil && after > before {
			s.readyAt[id] = after
		}
	}
	for _, id := range k.Reads {
		hint(id, false)
	}
	for _, id := range k.Writes {
		hint(id, true)
	}
	// Lookahead: announce a future kernel's reads now, so an
	// asynchronous mover can stage them behind this kernel's
	// execution ("will read in the NEAR future", Table II).
	if la := s.cfg.HintLookahead; la > 0 && ki+la < len(model.Kernels) {
		for _, id := range model.Kernels[ki+la].Reads {
			hint(id, false)
		}
	}
	// The stall events carry the exact floats MoveTime
	// accumulates, in the same order, so tracing.Verify can
	// demand bit-exact equality per iteration; zero deltas
	// are skipped (x + 0 == x).
	hintStall := p.Clock.Now() - hintStart
	s.it.MoveTime += hintStall
	s.rm.stall(hintStall)
	if hintStall != 0 {
		s.tr.Stall("hint", 0, hintStall)
	}
	// Wait for this kernel's arguments to finish moving.
	if s.readyAt != nil {
		var need float64
		blocking := -1
		for _, id := range append(append([]int{}, k.Reads...), k.Writes...) {
			if t, ok := s.readyAt[id]; ok && t > need {
				need = t
				blocking = id
			}
		}
		if wait := need - p.Clock.Now(); wait > 0 {
			p.Clock.Advance(wait)
			s.it.MoveTime += wait
			s.rm.stall(wait)
			if s.tr.Enabled() {
				var obj uint64
				if blocking >= 0 && s.objs[blocking] != nil {
					obj = s.objs[blocking].ID()
				}
				s.tr.Stall("wait", obj, wait)
			}
		}
	}

	// Execute the kernel: primaries are pinned for its
	// duration (§III-C) and the roofline time is charged.
	var readBytes, writeBytes [2]int64
	rf := k.EffectiveReadFactor()
	for _, id := range k.Reads {
		o := s.objs[id]
		pol.Pin(o)
		// Kernel-internal re-reads of the data input
		// stream from wherever the primary lives — there
		// is no hardware cache to absorb them (unlike
		// 2LM). Gradients and weights stream once.
		f := 1.0
		if amplified(model.Tensors[id].Kind) {
			f = rf
		}
		readBytes[m.GetPrimary(o).Class()] += int64(float64(o.Size()) * f)
	}
	for _, id := range k.Writes {
		o := s.objs[id]
		pol.Pin(o)
		writeBytes[m.GetPrimary(o).Class()] += o.Size()
	}
	kt := kernelTime(p, k.FLOPs, readBytes, writeBytes)
	p.Clock.Advance(kt)
	s.it.ComputeTime += kt
	s.rm.kernel(kt)
	if s.tr.Enabled() {
		now := p.Clock.Now()
		s.tr.Kernel(now-kt, now,
			k.FLOPs/p.Compute.PeakFlops+p.Compute.LaunchOverhead)
		s.tr.KernelIO(p.Fast.Name, readBytes[0], writeBytes[0])
		s.tr.KernelIO(p.Slow.Name, readBytes[1], writeBytes[1])
	}
	for _, id := range k.Reads {
		pol.Unpin(s.objs[id])
	}
	for _, id := range k.Writes {
		pol.Unpin(s.objs[id])
	}

	// Post-kernel annotations.
	if !s.cfg.NoArchiveHints {
		for _, id := range s.sched.ArchiveAfter[ki] {
			pol.Archive(s.objs[id])
		}
	}
	for _, id := range s.sched.RetireAfter[ki] {
		pol.Retire(s.objs[id])
		s.objs[id] = nil
	}

	used := m.UsedBytes(dm.Fast) + m.UsedBytes(dm.Slow)
	if used > s.res.PeakHeap {
		s.res.PeakHeap = used
	}
	if s.sampling {
		s.res.HeapSamples = append(s.res.HeapSamples,
			HeapSample{Time: p.Clock.Now() - s.iterStart, Used: used})
	}
	s.tr.EndKernel()
	return nil
}

// endIter closes the iteration: drain any in-flight asynchronous moves,
// then the paper's procedure — invoke the GC to clean up all temporary
// memory and defragment the heaps (§IV-A). The GC pause is measured;
// defragmentation happens between the measurement windows.
func (s *caStepper) endIter() error {
	p, iter := s.p, s.iter
	if s.cfg.AsyncMovement {
		if wait := p.Copier.BusyUntil() - p.Clock.Now(); wait > 0 {
			p.Clock.Advance(wait)
			s.it.MoveTime += wait
			s.rm.stall(wait)
			s.tr.Stall("drain", 0, wait)
		}
	}
	s.gc.Collect()
	s.it.GCTime = s.gc.Stats().PauseTime - s.gcBase
	s.it.Time = p.Clock.Now() - s.iterStart
	s.rm.iter(s.it.Time)
	s.it.Fast = p.Fast.Counters().Sub(s.fastBase)
	s.it.Slow = p.Slow.Counters().Sub(s.slowBase)
	s.res.Iterations = append(s.res.Iterations, s.it)
	s.tr.Iter(iter, s.iterStart, p.Clock.Now())

	if s.cfg.CheckInvariants {
		if err := s.pol.CheckInvariants(); err != nil {
			return fmt.Errorf("engine: after iter %d: %w", iter, err)
		}
		if live := transientLive(s.objs, s.sched); live != 0 {
			return fmt.Errorf("engine: %d transient objects leaked after iter %d", live, iter)
		}
	}
	if s.chk != nil {
		if err := s.chk.Err(); err != nil {
			return fmt.Errorf("engine: during iter %d: %w", iter, err)
		}
		// The iteration boundary is a quiesce point: every region
		// must be bound and the policy accounting exact.
		if err := s.chk.CheckQuiesced(); err != nil {
			return fmt.Errorf("engine: after iter %d: %w", iter, err)
		}
	}
	s.m.Defrag(dm.Fast)
	s.m.Defrag(dm.Slow)
	return nil
}

// Finish finalizes the run and returns the Result.
func (s *caStepper) Finish() (*Result, error) {
	if !s.done {
		return nil, fmt.Errorf("engine: finish before run completed")
	}
	if s.finished {
		return nil, fmt.Errorf("engine: double finish")
	}
	s.finished = true
	p, res := s.p, s.res
	res.Policy = s.pol.Stats()
	res.DM = s.m.Stats()
	res.GC = s.gc.Stats()
	res.Faults = s.inj.Stats()
	if src, ok := s.pol.(policy.AdaptiveSource); ok {
		res.Adaptive = src.AdaptiveStats()
	}
	if s.chk != nil {
		res.InvariantChecks = s.chk.Checks()
		if err := s.chk.Err(); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	if s.events != nil {
		res.Events = s.events.Events()
	}
	if s.tr.Enabled() {
		// Embed the run's authoritative aggregates as the trailing
		// event, making the trace self-contained: tracing.Verify
		// re-derives each of these from the event stream and demands
		// exact equality.
		moveByIter := make([]float64, len(res.Iterations))
		for i := range res.Iterations {
			moveByIter[i] = res.Iterations[i].MoveTime
		}
		fc, sc := p.Fast.Counters(), p.Slow.Counters()
		fr, fw, sr, sw := fc.ReadBytes, fc.WriteBytes, sc.ReadBytes, sc.WriteBytes
		if s.traffic != nil {
			// Shared platform: whole-platform counters mix every tenant's
			// traffic; use the owner's per-tenant attribution so this
			// lane's totals decompose this tenant's events exactly.
			fr, fw, sr, sw = s.traffic()
		}
		s.tr.EmitTotals(tracing.Totals{
			Copies:          res.DM.Copies,
			BytesFastToSlow: res.DM.BytesFastToSlow,
			BytesSlowToFast: res.DM.BytesSlowToFast,
			BytesWithinFast: res.DM.BytesWithinFast,
			BytesWithinSlow: res.DM.BytesWithinSlow,
			DefragMoves:     res.DM.DefragMoves,
			FastDevice:      p.Fast.Name,
			SlowDevice:      p.Slow.Name,
			FastReadBytes:   fr,
			FastWriteBytes:  fw,
			SlowReadBytes:   sr,
			SlowWriteBytes:  sw,
			MoveTimeByIter:  moveByIter,
			Async:           s.cfg.AsyncMovement,
		})
		if !s.sharedTrace {
			res.Trace = s.tr.Events()
		}
	}
	finishMetrics(s.cfg.Metrics, s.model.Name, s.pol.Name(), p.Clock.Now())
	s.release()
	res.aggregate()
	return res, nil
}

// transientLive counts transient objects still alive (all must be nil or
// retired after an iteration's final GC).
func transientLive(objs []*dm.Object, sched *trace.Schedule) int {
	persistent := make(map[int]bool, len(sched.Persistent))
	for _, id := range sched.Persistent {
		persistent[id] = true
	}
	n := 0
	for id, o := range objs {
		if o == nil || persistent[id] {
			continue
		}
		if !o.Retired() {
			n++
		}
	}
	return n
}
