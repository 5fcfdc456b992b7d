package engine

import (
	"fmt"

	"cachedarrays/internal/alloc"
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/models"
	"cachedarrays/internal/pagemig"
	"cachedarrays/internal/trace"
)

// pagemigStepper is a training run under the OS page-tiering baseline
// (mode "OS:page"; Table I's "Operating System" row — Nimble/HeMem-style):
// transparent, reactive migration of fixed-size pages by observed
// hotness, with no application hints. The application side gets the same
// best-case treatment as 2LM:M (eager frees, the CachedArrays allocator
// over a pre-allocated heap) so the comparison isolates the
// data-movement mechanism.
type pagemigStepper struct {
	model   *models.Model
	pcfg    pagemig.Config
	cfg     Config
	p       *memsim.Platform
	release func()
	mig     *pagemig.Migrator
	sched   *trace.Schedule
	res     *Result
	rm      runMetrics
	heap    alloc.Allocator
	addrs   []int64

	// The migration daemon's epoch cadence spans iteration boundaries:
	// the counter deliberately persists across iterations.
	kernelsSinceEpoch int

	iter               int
	ki                 int
	inIter             bool
	it                 IterationMetrics
	iterStart          float64
	fastBase, slowBase memsim.Counters
	sampling           bool
	done               bool
	finished           bool
}

func newPageMigStepper(model *models.Model, pcfg pagemig.Config, cfg Config, env *Env) (*pagemigStepper, error) {
	cfg = cfg.withDefaults()
	if pcfg.PageSize == 0 {
		pcfg = pagemig.DefaultConfig()
	}
	p, release := env.acquire(cfg)
	mig, err := pagemig.New(p, pcfg)
	if err != nil {
		return nil, err
	}
	sched := trace.New(model)
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	s := &pagemigStepper{
		model: model, pcfg: pcfg, cfg: cfg, p: p, release: release,
		mig: mig, sched: sched,
		res: &Result{ModelName: model.Name, Mode: "OS:page", Config: cfg},
	}
	s.res.recordPeaks(p)

	s.heap = env.limitSlow(alloc.NewFreeList(p.Slow.Capacity, alloc.FirstFit))
	registerPlatformMetrics(cfg.Metrics, p)
	env.attachRegistry(cfg.Metrics, p)
	s.rm = newRunMetrics(cfg.Metrics)
	if cfg.Metrics.Enabled() {
		cfg.Metrics.Gauge("pagemig_heap_used_bytes", func() float64 { return float64(s.heap.Used()) })
	}
	s.addrs = make([]int64, len(model.Tensors))
	for _, id := range sched.Persistent {
		if err := s.allocate(id); err != nil {
			return nil, err
		}
	}
	if cfg.Iterations <= 0 {
		s.done = true
	}
	return s, nil
}

func (s *pagemigStepper) allocate(id int) error {
	a, err := s.heap.Alloc(s.model.Tensors[id].Bytes)
	if err != nil {
		return fmt.Errorf("engine: pagemig heap: allocating %s: %w", s.model.Tensors[id].Name, err)
	}
	s.addrs[id] = a
	return nil
}

func (s *pagemigStepper) Done() bool { return s.done }

func (s *pagemigStepper) Step() (float64, error) {
	if s.done {
		return s.p.Clock.Now(), fmt.Errorf("engine: step after run completed")
	}
	if !s.inIter {
		s.iterStart = s.p.Clock.Now()
		s.fastBase, s.slowBase = s.p.Fast.Counters(), s.p.Slow.Counters()
		s.it = IterationMetrics{}
		s.sampling = s.cfg.SampleHeap && s.iter == s.cfg.Iterations-1
		if s.sampling {
			s.res.HeapSamples = s.res.HeapSamples[:0]
		}
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

func (s *pagemigStepper) kernelStep() error {
	p, model, ki := s.p, s.model, s.ki
	k := &model.Kernels[ki]
	for _, id := range s.sched.AllocBefore[ki] {
		if err := s.allocate(id); err != nil {
			return err
		}
	}
	var memTime float64
	rf := k.EffectiveReadFactor()
	for _, id := range k.Reads {
		r := s.mig.Access(s.addrs[id], model.Tensors[id].Bytes, false, kernelAccess)
		memTime += r.Time
		if !amplified(model.Tensors[id].Kind) || rf <= 1 {
			continue
		}
		// Kernel-internal re-reads stream from wherever the
		// pages live, in the observed fast/slow proportion.
		extra := rf - 1
		memTime += p.Fast.Read(int64(float64(r.FastBytes)*extra), kernelAccess)
		memTime += p.Slow.Read(int64(float64(r.SlowBytes)*extra), kernelAccess)
	}
	for _, id := range k.Writes {
		memTime += s.mig.Access(s.addrs[id], model.Tensors[id].Bytes, true, kernelAccess).Time
	}
	kt := k.FLOPs/p.Compute.PeakFlops + p.Compute.LaunchOverhead
	if memTime > kt {
		kt = memTime
	}
	p.Clock.Advance(kt)
	s.it.ComputeTime += kt
	s.rm.kernel(kt)

	// The OS daemon wakes periodically; its migrations land
	// on the application's critical path (page faults, TLB
	// shootdowns). The copier has already advanced the
	// clock; account the duration as movement stall.
	s.kernelsSinceEpoch++
	if s.kernelsSinceEpoch >= s.pcfg.EpochKernels {
		epoch := s.mig.Epoch()
		s.it.MoveTime += epoch
		s.rm.stall(epoch)
		s.kernelsSinceEpoch = 0
	}

	for _, id := range s.sched.RetireAfter[ki] {
		s.heap.Free(s.addrs[id]) // eager, best-case resource management
	}
	if s.heap.Used() > s.res.PeakHeap {
		s.res.PeakHeap = s.heap.Used()
	}
	if s.sampling {
		s.res.HeapSamples = append(s.res.HeapSamples,
			HeapSample{Time: p.Clock.Now() - s.iterStart, Used: s.heap.Used()})
	}
	return nil
}

func (s *pagemigStepper) endIter() error {
	p, iter := s.p, s.iter
	s.it.Time = p.Clock.Now() - s.iterStart
	s.rm.iter(s.it.Time)
	s.it.Fast = p.Fast.Counters().Sub(s.fastBase)
	s.it.Slow = p.Slow.Counters().Sub(s.slowBase)
	s.res.Iterations = append(s.res.Iterations, s.it)

	if s.cfg.CheckInvariants {
		if err := s.heap.CheckInvariants(); err != nil {
			return fmt.Errorf("engine: pagemig heap after iter %d: %w", iter, err)
		}
	}
	return nil
}

func (s *pagemigStepper) Finish() (*Result, error) {
	if !s.done {
		return nil, fmt.Errorf("engine: finish before run completed")
	}
	if s.finished {
		return nil, fmt.Errorf("engine: double finish")
	}
	s.finished = true
	finishMetrics(s.cfg.Metrics, s.model.Name, "OS:page", s.p.Clock.Now())
	s.release()
	s.res.aggregate()
	return s.res, nil
}
