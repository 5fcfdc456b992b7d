package engine

import (
	"fmt"

	"cachedarrays/internal/alloc"
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/models"
	"cachedarrays/internal/trace"
	"cachedarrays/internal/twolm"
)

// twolmStepper is a training run in the paper's baseline configuration
// (modes "2LM:0" and "2LM:M"): Intel memory mode, where the whole heap
// lives in a flat NVRAM-backed physical address space fronted by a
// transparent direct-mapped DRAM cache.
//
// memOpt selects "2LM: M" (eagerly free dead tensors, so physical pages
// are reused and stay cache-resident) versus "2LM: Ø" (rely on deferred
// collection, so the heap grows monotonically until the collector runs —
// Fig. 3's rising curve).
//
// As in the paper, the baseline uses the CachedArrays allocator over a
// pre-allocated heap (§IV-A: "we use 2LM with the CachedArrays allocator
// as the baseline"), so allocation-side effects are identical across
// systems and only the data-movement mechanism differs.
type twolmStepper struct {
	model   *models.Model
	memOpt  bool
	cfg     Config
	p       *memsim.Platform
	release func()
	cache   *twolm.Cache
	sched   *trace.Schedule
	res     *Result
	rm      runMetrics
	mode    string
	heap    alloc.Allocator
	addrs   []int64
	live    []bool

	// Deferred-death list for the Ø mode (the GC the paper's Julia
	// runtime provides). Pause constants mirror gcsim.
	dead     []int
	gcPauses float64

	iter               int
	ki                 int
	inIter             bool
	it                 IterationMetrics
	iterStart          float64
	fastBase, slowBase memsim.Counters
	cacheBase          twolm.Stats
	gcBase             float64
	sampling           bool
	done               bool
	finished           bool
}

const twolmPauseBase, twolmPausePerObject = 1e-3, 2e-7

func new2LMStepper(model *models.Model, memOpt bool, cfg Config, env *Env) (*twolmStepper, error) {
	cfg = cfg.withDefaults()
	p, release := env.acquire(cfg)
	cache, err := twolm.New(p.Fast, p.Slow, cfg.TwoLM)
	if err != nil {
		return nil, err
	}
	sched := trace.New(model)
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	mode := "2LM:0"
	if memOpt {
		mode = "2LM:M"
	}
	s := &twolmStepper{
		model: model, memOpt: memOpt, cfg: cfg, p: p, release: release,
		cache: cache, sched: sched, mode: mode,
		res: &Result{ModelName: model.Name, Mode: mode, Config: cfg},
	}
	s.res.recordPeaks(p)

	// The flat heap spans the slow device's physical address space; under
	// a shared platform the slow-tier budget arbitrates it with the other
	// tenants' heaps.
	s.heap = env.limitSlow(alloc.NewFreeList(p.Slow.Capacity, alloc.FirstFit))
	registerPlatformMetrics(cfg.Metrics, p)
	env.attachRegistry(cfg.Metrics, p)
	s.rm = newRunMetrics(cfg.Metrics)
	if cfg.Metrics.Enabled() {
		cfg.Metrics.Gauge("twolm_heap_used_bytes", func() float64 { return float64(s.heap.Used()) })
		cfg.Metrics.CounterFunc("twolm_cache_hits", func() float64 { return float64(cache.Stats().Hits) })
		cfg.Metrics.CounterFunc("twolm_cache_clean_misses", func() float64 { return float64(cache.Stats().CleanMisses) })
		cfg.Metrics.CounterFunc("twolm_cache_dirty_misses", func() float64 { return float64(cache.Stats().DirtyMisses) })
	}
	s.addrs = make([]int64, len(model.Tensors))
	s.live = make([]bool, len(model.Tensors))

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

// collect frees the deferred-death list and charges the GC pause.
func (s *twolmStepper) collect() {
	if len(s.dead) == 0 {
		return
	}
	for _, id := range s.dead {
		s.heap.Free(s.addrs[id])
		s.live[id] = false
	}
	pause := twolmPauseBase + float64(len(s.dead))*twolmPausePerObject
	s.p.Clock.Advance(pause)
	s.gcPauses += pause
	s.res.GC.Collections++
	s.res.GC.ObjectsFreed += int64(len(s.dead))
	s.dead = s.dead[:0]
}

func (s *twolmStepper) allocate(id int) error {
	a, err := s.heap.Alloc(s.model.Tensors[id].Bytes)
	if err == alloc.ErrExhausted && len(s.dead) > 0 {
		// Memory pressure: run the collector and retry — the
		// mid-iteration GC visible in Fig. 3's 2LM:Ø curve.
		s.collect()
		a, err = s.heap.Alloc(s.model.Tensors[id].Bytes)
	}
	if err != nil {
		return fmt.Errorf("engine: 2LM heap: allocating %s: %w", s.model.Tensors[id].Name, err)
	}
	s.addrs[id] = a
	s.live[id] = true
	return nil
}

func (s *twolmStepper) Done() bool { return s.done }

func (s *twolmStepper) Step() (float64, error) {
	if s.done {
		return s.p.Clock.Now(), fmt.Errorf("engine: step after run completed")
	}
	if !s.inIter {
		s.iterStart = s.p.Clock.Now()
		s.fastBase, s.slowBase = s.p.Fast.Counters(), s.p.Slow.Counters()
		s.cacheBase = s.cache.Stats()
		s.gcBase = s.gcPauses
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

func (s *twolmStepper) kernelStep() error {
	p, model, ki := s.p, s.model, s.ki
	k := &model.Kernels[ki]
	for _, id := range s.sched.AllocBefore[ki] {
		if err := s.allocate(id); err != nil {
			return err
		}
	}
	// The hardware cache services every access; there are
	// no hints and no explicit movement. Kernel-internal
	// re-reads (ReadFactor) hit the DRAM cache after the
	// first pass brings the lines in — the one advantage a
	// transparent cache has over in-place NVRAM reads.
	// App-side DRAM streaming overlaps with compute like
	// any kernel traffic; demand-miss handling (fills,
	// metadata, writebacks) stalls the kernel.
	var cost twolm.Cost
	rf := k.EffectiveReadFactor()
	for _, id := range k.Reads {
		cost.Add(s.cache.Access(s.addrs[id], model.Tensors[id].Bytes, false))
		if !amplified(model.Tensors[id].Kind) {
			continue
		}
		if rereads := int64(float64(model.Tensors[id].Bytes) * (rf - 1)); rereads > 0 {
			cost.App += p.Fast.Read(rereads, kernelAccess)
		}
	}
	for _, id := range k.Writes {
		cost.Add(s.cache.Access(s.addrs[id], model.Tensors[id].Bytes, true))
	}
	kt := k.FLOPs/p.Compute.PeakFlops + p.Compute.LaunchOverhead
	if cost.App > kt {
		kt = cost.App
	}
	kt += cost.Stall()
	p.Clock.Advance(kt)
	s.it.ComputeTime += kt
	s.rm.kernel(kt)

	for _, id := range s.sched.RetireAfter[ki] {
		if s.memOpt {
			// 2LM:M — free eagerly; the physical pages
			// are recycled while their lines are still
			// cache-resident.
			s.heap.Free(s.addrs[id])
			s.live[id] = false
		} else {
			s.dead = append(s.dead, id)
		}
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

func (s *twolmStepper) endIter() error {
	p, iter := s.p, s.iter
	s.collect()
	s.it.GCTime = s.gcPauses - s.gcBase
	s.it.Time = p.Clock.Now() - s.iterStart
	s.rm.iter(s.it.Time)
	s.it.Fast = p.Fast.Counters().Sub(s.fastBase)
	s.it.Slow = p.Slow.Counters().Sub(s.slowBase)
	s.it.Cache = s.cache.Stats().Sub(s.cacheBase)
	s.res.Iterations = append(s.res.Iterations, s.it)

	if s.cfg.CheckInvariants {
		if err := s.heap.CheckInvariants(); err != nil {
			return fmt.Errorf("engine: 2LM heap after iter %d: %w", iter, err)
		}
		for id := range s.live {
			if s.live[id] && !persistentTensor(s.sched, id) {
				return fmt.Errorf("engine: 2LM leaked tensor %s after iter %d",
					s.model.Tensors[id].Name, iter)
			}
		}
	}
	return nil
}

func (s *twolmStepper) Finish() (*Result, error) {
	if !s.done {
		return nil, fmt.Errorf("engine: finish before run completed")
	}
	if s.finished {
		return nil, fmt.Errorf("engine: double finish")
	}
	s.finished = true
	s.res.Cache = twolm.Stats{}
	finishMetrics(s.cfg.Metrics, s.model.Name, s.mode, s.p.Clock.Now())
	s.release()
	s.res.aggregate()
	return s.res, nil
}

// persistentTensor reports whether id is in the schedule's persistent set.
func persistentTensor(sched *trace.Schedule, id int) bool {
	for _, p := range sched.Persistent {
		if p == id {
			return true
		}
	}
	return false
}
