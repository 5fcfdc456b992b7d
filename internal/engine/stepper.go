package engine

import (
	"fmt"
	"strings"

	"cachedarrays/internal/alloc"
	"cachedarrays/internal/invariants"
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/pagemig"
	"cachedarrays/internal/policy"
	"cachedarrays/internal/tracing"
)

// Stepper is the event-driven core of a run: the per-mode execution loops
// (CA, 2LM, OS page migration, AutoTM plans) are all expressed as a
// sequence of discrete events — one kernel with its surrounding hints and
// annotations, or one end-of-iteration boundary (drain, GC, defrag,
// audits) — that a driver dispatches one at a time. Run to completion
// (Drive) this is byte-identical to the old straight-line loops; dispatched
// by the cluster simulator, many jobs interleave their events on one
// shared platform under a single virtual clock.
type Stepper interface {
	// Step executes the run's next event and returns the virtual time at
	// which the job can next run — the global clock after the event, i.e.
	// the job's next-event time in a timestamp-ordered dispatch loop.
	Step() (float64, error)
	// Done reports whether every event has been executed.
	Done() bool
	// Finish finalizes and returns the result. Call exactly once, after
	// Done; it aggregates the measured iterations, embeds trace totals,
	// flushes metrics and returns the platform to the pool (solo runs).
	Finish() (*Result, error)
}

// Env is the execution environment a cluster dispatch loop shares between
// the steppers it multiplexes. A nil Env (the solo path) makes each
// stepper acquire its own pooled platform and attach its instrumentation
// hooks directly to the clock.
type Env struct {
	// Platform, when non-nil, is the shared platform every tenant runs
	// on. The owner configures it (movement discipline, capacities) and
	// resets/releases it; steppers must not.
	Platform *memsim.Platform
	// FastQuota/SlowQuota, when non-nil, arbitrate the shared device
	// capacity between tenants: every tenant's allocator is wrapped so
	// the aggregate bytes held can never exceed the device, and a tenant
	// squeezed by its neighbours sees ErrExhausted exactly as it would on
	// a smaller device.
	FastQuota *alloc.Quota
	SlowQuota *alloc.Quota
	// OnChecker receives each tenant's invariant checker instead of
	// letting it claim the clock's single OnAdvance hook; the owner fans
	// the hook out to every registered checker.
	OnChecker func(*invariants.Checker)
	// OnRegistry receives each tenant's metrics registry instead of
	// letting it claim the clock's single Metrics attachment; the owner
	// ticks every registered registry from its fan-out hook.
	OnRegistry func(*metrics.Registry)
	// Tracer, when non-nil, is the owner-managed shared recorder (the
	// cluster's tenant-tagging mux) already installed in the platform's
	// tracer slot. Traced steppers emit into it instead of claiming the
	// slot themselves, and leave their events out of their own Result —
	// the owner assembles the multiplexed trace.
	Tracer *tracing.Recorder
	// Traffic, when Tracer is set, returns the device read/write bytes
	// (fast read, fast write, slow read, slow write) the owner attributed
	// to the currently-dispatched tenant — the per-tenant replacement for
	// the whole-platform counters a solo run embeds in its trace totals.
	Traffic func() (fr, fw, sr, sw int64)
}

// shared reports whether steppers run on an owner-managed platform.
func (e *Env) shared() bool { return e != nil && e.Platform != nil }

// acquire returns the run's platform: the shared one (with a no-op
// release — the owner resets it) or a freshly acquired pooled platform.
func (e *Env) acquire(cfg Config) (*memsim.Platform, func()) {
	if e.shared() {
		return e.Platform, func() {}
	}
	return acquirePlatform(cfg)
}

// limitFast wraps a with the shared fast-tier budget, if any.
func (e *Env) limitFast(a alloc.Allocator) alloc.Allocator {
	if e == nil {
		return a
	}
	return alloc.Limit(a, e.FastQuota)
}

// limitSlow wraps a with the shared slow-tier budget, if any.
func (e *Env) limitSlow(a alloc.Allocator) alloc.Allocator {
	if e == nil {
		return a
	}
	return alloc.Limit(a, e.SlowQuota)
}

// attachChecker wires an invariant checker: to the clock on the solo
// path, to the owner's fan-out in a shared environment.
func (e *Env) attachChecker(chk *invariants.Checker) {
	if e.shared() && e.OnChecker != nil {
		e.OnChecker(chk)
		return
	}
	chk.Attach()
}

// attachRegistry wires a metrics registry's sampling: the clock drives it
// on the solo path, the owner's fan-out in a shared environment.
func (e *Env) attachRegistry(reg *metrics.Registry, p *memsim.Platform) {
	if !reg.Enabled() {
		return
	}
	if e.shared() && e.OnRegistry != nil {
		e.OnRegistry(reg)
		return
	}
	p.Clock.Metrics = reg
}

// AcquirePlatform exposes the pooled-platform path to the cluster
// simulator: it resolves the config's defaults (pool keys use resolved
// capacities) and returns a platform plus the release function that
// resets it and returns it to the pool. Release only a platform in a
// known-good state; abandon one a failed run may have corrupted.
func AcquirePlatform(cfg Config) (*memsim.Platform, func()) {
	return acquirePlatform(cfg.withDefaults())
}

// Run executes a training run in the given operating mode (any Normalize
// spelling) to completion on a pooled platform: the solo form of
// NewStepper+Drive, and the one entry point every mode shares.
func Run(m *models.Model, mode string, cfg Config) (*Result, error) {
	st, err := NewStepper(m, mode, cfg, nil)
	if err != nil {
		return nil, err
	}
	return Drive(st)
}

// Drive runs a stepper to completion: the solo execution path, and the
// proof obligation the cluster's N=1 property test leans on — a driven
// stepper is the run.
func Drive(st Stepper) (*Result, error) {
	for !st.Done() {
		if _, err := st.Step(); err != nil {
			return nil, err
		}
	}
	return st.Finish()
}

// Normalize canonicalizes a user-facing mode spelling ("os", "2LM:O",
// "plan") to the canonical mode name results, cache keys and reports use.
func Normalize(mode string) (string, error) {
	switch strings.ToUpper(mode) {
	case "2LM:0", "2LM:O":
		return "2LM:0", nil
	case "2LM:M":
		return "2LM:M", nil
	case "CA:0", "CA:O":
		return "CA:0", nil
	case "CA:L":
		return "CA:L", nil
	case "CA:LM":
		return "CA:LM", nil
	case "CA:LMP":
		return "CA:LMP", nil
	case "CA:OG":
		return AdaptiveOG, nil
	case "CA:TG":
		return AdaptiveTG, nil
	case "CA:OGTG", "CA:TGOG":
		return AdaptiveOGTG, nil
	case "OS:PAGE", "OS":
		return "OS:page", nil
	case "AUTOTM", "AUTOTM:PLAN", "PLAN":
		return "AutoTM", nil
	default:
		return "", fmt.Errorf("engine: unknown mode %q (2LM:0, 2LM:M, CA:0, CA:L, CA:LM, CA:LMP, CA:OG, CA:TG, CA:OGTG, OS:page, AutoTM)", mode)
	}
}

// NewStepper builds the event-driven form of a run in the given operating
// mode (any Normalize spelling). It is the single mode dispatcher
// underneath Run, the scheduler and the cluster simulator.
func NewStepper(m *models.Model, mode string, cfg Config, env *Env) (Stepper, error) {
	canon, err := Normalize(mode)
	if err != nil {
		return nil, err
	}
	switch canon {
	case "2LM:0":
		return new2LMStepper(m, false, cfg, env)
	case "2LM:M":
		return new2LMStepper(m, true, cfg, env)
	case "CA:0":
		return newCAModeStepper(m, policy.CAZero, cfg, env)
	case "CA:L":
		return newCAModeStepper(m, policy.CAL, cfg, env)
	case "CA:LM":
		return newCAModeStepper(m, policy.CALM, cfg, env)
	case "CA:LMP":
		return newCAModeStepper(m, policy.CALMP, cfg, env)
	case "OS:page":
		return newPageMigStepper(m, pagemig.DefaultConfig(), cfg, env)
	case "AutoTM":
		return newPlannedStepper(m, nil, cfg, env)
	default:
		return newAdaptiveStepper(m, canon, cfg, env)
	}
}
