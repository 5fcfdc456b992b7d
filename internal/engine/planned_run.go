package engine

import (
	"fmt"

	"cachedarrays/internal/dm"
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/models"
	"cachedarrays/internal/planner"
	"cachedarrays/internal/trace"
)

// plannedStepper is a training run under a static, ahead-of-time plan
// (mode "AutoTM"; the AutoTM-style "Compiler" row of Table I): every
// tensor's residency was decided offline; the runtime just executes the
// placements and the planned offload/restore copies. No hints, no
// adaptive policy. A nil plan is built from the model and the DRAM
// budget.
type plannedStepper struct {
	model   *models.Model
	plan    *planner.Plan
	cfg     Config
	p       *memsim.Platform
	release func()
	m       *dm.Manager
	sched   *trace.Schedule
	res     *Result
	rm      runMetrics
	objs    []*dm.Object

	// Planned offload and restore points indexed by kernel.
	offloadAt [][]int
	restoreAt [][]int

	iter               int
	ki                 int
	inIter             bool
	it                 IterationMetrics
	iterStart          float64
	fastBase, slowBase memsim.Counters
	done               bool
	finished           bool
}

func newPlannedStepper(model *models.Model, plan *planner.Plan, cfg Config, env *Env) (*plannedStepper, error) {
	cfg = cfg.withDefaults()
	p, release := env.acquire(cfg)
	m, err := newManager(p, cfg, env)
	if err != nil {
		return nil, err
	}
	if plan == nil {
		// Reserve a little headroom for allocator alignment slack.
		budget := resolveCapacity(cfg.FastCapacity, p.Fast.Capacity) * 97 / 100
		plan = planner.Build(model, budget, planner.DefaultCostModel())
	}
	if len(plan.Placement) != len(model.Tensors) {
		return nil, fmt.Errorf("engine: plan covers %d tensors, model has %d",
			len(plan.Placement), len(model.Tensors))
	}
	sched := trace.New(model)
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	s := &plannedStepper{
		model: model, plan: plan, cfg: cfg, p: p, release: release,
		m: m, sched: sched,
		res: &Result{ModelName: model.Name, Mode: "AutoTM:plan", Config: cfg},
	}
	s.res.recordPeaks(p)
	registerPlatformMetrics(cfg.Metrics, p)
	env.attachRegistry(cfg.Metrics, p)
	m.RegisterMetrics(cfg.Metrics)
	s.rm = newRunMetrics(cfg.Metrics)
	s.objs = make([]*dm.Object, len(model.Tensors))

	s.offloadAt = make([][]int, len(model.Kernels))
	s.restoreAt = make([][]int, len(model.Kernels))
	for id, pl := range plan.Placement {
		if pl == planner.Offload {
			s.offloadAt[plan.OffloadAfter[id]] = append(s.offloadAt[plan.OffloadAfter[id]], id)
			s.restoreAt[plan.RestoreBefore[id]] = append(s.restoreAt[plan.RestoreBefore[id]], id)
		}
	}

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

// allocate places a tensor on its planned tier, falling back to slow
// memory if fragmentation defeats the plan (counted as a fetch
// failure — a real static system would crash or re-plan here).
func (s *plannedStepper) allocate(id int) error {
	class := dm.Slow
	if s.plan.Placement[id] != planner.SlowAlways {
		class = dm.Fast
	}
	o, err := s.m.NewObject(s.model.Tensors[id].Bytes, class)
	if err == dm.ErrExhausted && class == dm.Fast {
		s.res.Policy.FetchFailures++
		o, err = s.m.NewObject(s.model.Tensors[id].Bytes, dm.Slow)
	}
	if err != nil {
		return fmt.Errorf("engine: planned allocation of %s: %w", s.model.Tensors[id].Name, err)
	}
	s.objs[id] = o
	return nil
}

// park moves an offloaded tensor's primary to slow memory (the
// planned synchronous eviction copy).
func (s *plannedStepper) park(o *dm.Object) error {
	m := s.m
	x := m.GetPrimary(o)
	if !m.In(x, dm.Fast) {
		return nil
	}
	y, err := m.Allocate(dm.Slow, o.Size())
	if err != nil {
		return err
	}
	m.CopyTo(y, x)
	if err := m.SetPrimary(o, y); err != nil {
		return err
	}
	m.Free(x)
	return nil
}

// restore brings it back (the planned prefetch copy).
func (s *plannedStepper) restore(o *dm.Object) error {
	m := s.m
	x := m.GetPrimary(o)
	if !m.In(x, dm.Slow) {
		return nil
	}
	y, err := m.Allocate(dm.Fast, o.Size())
	if err != nil {
		s.res.Policy.FetchFailures++
		return nil // plan defeated by fragmentation; read in place
	}
	m.CopyTo(y, x)
	if err := m.SetPrimary(o, y); err != nil {
		return err
	}
	m.Free(x)
	return nil
}

func (s *plannedStepper) Done() bool { return s.done }

func (s *plannedStepper) Step() (float64, error) {
	if s.done {
		return s.p.Clock.Now(), fmt.Errorf("engine: step after run completed")
	}
	if !s.inIter {
		s.iterStart = s.p.Clock.Now()
		s.fastBase, s.slowBase = s.p.Fast.Counters(), s.p.Slow.Counters()
		s.it = IterationMetrics{}
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

func (s *plannedStepper) kernelStep() error {
	p, m, model, ki := s.p, s.m, s.model, s.ki
	k := &model.Kernels[ki]
	moveStart := p.Clock.Now()
	for _, id := range s.sched.AllocBefore[ki] {
		if err := s.allocate(id); err != nil {
			return err
		}
	}
	// Planned restores land immediately before the kernel
	// that reuses the tensor.
	for _, id := range s.restoreAt[ki] {
		if s.objs[id] != nil && !s.objs[id].Retired() {
			if err := s.restore(s.objs[id]); err != nil {
				return err
			}
		}
	}
	moveStall := p.Clock.Now() - moveStart
	s.it.MoveTime += moveStall
	s.rm.stall(moveStall)

	var readBytes, writeBytes [2]int64
	rf := k.EffectiveReadFactor()
	for _, id := range k.Reads {
		f := 1.0
		if amplified(model.Tensors[id].Kind) {
			f = rf
		}
		readBytes[m.GetPrimary(s.objs[id]).Class()] += int64(float64(s.objs[id].Size()) * f)
	}
	for _, id := range k.Writes {
		writeBytes[m.GetPrimary(s.objs[id]).Class()] += s.objs[id].Size()
	}
	kt := kernelTime(p, k.FLOPs, readBytes, writeBytes)
	p.Clock.Advance(kt)
	s.it.ComputeTime += kt
	s.rm.kernel(kt)

	moveStart = p.Clock.Now()
	for _, id := range s.offloadAt[ki] {
		if s.objs[id] != nil && !s.objs[id].Retired() {
			if err := s.park(s.objs[id]); err != nil {
				return err
			}
		}
	}
	for _, id := range s.sched.RetireAfter[ki] {
		m.DestroyObject(s.objs[id])
		s.objs[id] = nil
	}
	moveStall = p.Clock.Now() - moveStart
	s.it.MoveTime += moveStall
	s.rm.stall(moveStall)

	used := m.UsedBytes(dm.Fast) + m.UsedBytes(dm.Slow)
	if used > s.res.PeakHeap {
		s.res.PeakHeap = used
	}
	return nil
}

func (s *plannedStepper) endIter() error {
	p, iter := s.p, s.iter
	s.it.Time = p.Clock.Now() - s.iterStart
	s.rm.iter(s.it.Time)
	s.it.Fast = p.Fast.Counters().Sub(s.fastBase)
	s.it.Slow = p.Slow.Counters().Sub(s.slowBase)
	s.res.Iterations = append(s.res.Iterations, s.it)

	if s.cfg.CheckInvariants {
		if err := s.m.CheckInvariants(); err != nil {
			return fmt.Errorf("engine: planned run after iter %d: %w", iter, err)
		}
	}
	s.m.Defrag(dm.Fast)
	s.m.Defrag(dm.Slow)
	return nil
}

func (s *plannedStepper) Finish() (*Result, error) {
	if !s.done {
		return nil, fmt.Errorf("engine: finish before run completed")
	}
	if s.finished {
		return nil, fmt.Errorf("engine: double finish")
	}
	s.finished = true
	s.res.DM = s.m.Stats()
	finishMetrics(s.cfg.Metrics, s.model.Name, "AutoTM:plan", s.p.Clock.Now())
	s.release()
	s.res.aggregate()
	return s.res, nil
}
