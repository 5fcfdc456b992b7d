// Package engine executes workload traces against either the CachedArrays
// runtime (data manager + policy, §III) or the 2LM hardware-cache baseline
// (§IV-A), in virtual time, producing all the metrics the paper's
// evaluation reports: iteration time (Fig. 2, 7), heap-occupancy time
// series (Fig. 3), DRAM-cache tag statistics (Fig. 4), per-device traffic
// (Fig. 5) and bus utilization (Fig. 6).
package engine

import (
	"fmt"

	"cachedarrays/internal/dm"
	"cachedarrays/internal/faults"
	"cachedarrays/internal/gcsim"
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/policy"
	"cachedarrays/internal/tracing"
	"cachedarrays/internal/twolm"
	"cachedarrays/internal/units"
)

// SimVersion versions the simulator's result semantics. Every result-cache
// key folds it in, so a change that moves any simulated number must bump
// it: a cache directory filled by an older build then misses instead of
// serving results the current simulator would not produce.
//
//	1: the result cache's first key format.
//	2: page-migration epochs order candidates by (hotness, page).
const SimVersion = 2

// Config parameterizes a run. Zero fields take paper defaults.
type Config struct {
	// FastCapacity is the DRAM budget (paper: 180 GB; Fig. 7 sweeps it).
	FastCapacity int64
	// SlowCapacity is the NVRAM budget (paper: 1300 GB).
	SlowCapacity int64
	// CopyThreads sizes the data-movement pool.
	CopyThreads int
	// Iterations to run (paper: 4). The first iteration is warm-up; the
	// reported Result averages the remaining ones.
	Iterations int
	// TwoLM configures the hardware cache for the 2LM modes.
	TwoLM twolm.Config
	// SampleHeap records the resident-heap time series (Fig. 3).
	SampleHeap bool
	// AsyncMovement runs data movement on the paper's future-work design
	// (§V-c): a separate mover timeline overlapping kernel execution,
	// instead of synchronous stalls. Kernels still wait for their own
	// arguments' in-flight moves (data dependencies).
	AsyncMovement bool
	// HintLookahead emits will_read hints this many kernels ahead of
	// use, giving an asynchronous mover time to stage data. 0 keeps the
	// paper's evaluated behaviour (hints immediately before the kernel).
	HintLookahead int
	// Allocator selects the heap allocator for ablations: "" or
	// "firstfit" (the default), "bestfit", or "buddy".
	Allocator string
	// NoArchiveHints suppresses the archive annotations (ablation: how
	// much of the win comes from eviction prioritization).
	NoArchiveHints bool
	// PreferCleanVictims enables the cost-aware victim refinement (see
	// policy.Config.PreferCleanVictims).
	PreferCleanVictims bool
	// TraceEvents, when positive, records the last N data-manager events
	// (allocations, copies, primary changes, destroys) into
	// Result.Events — the movement audit trail for debugging placement.
	TraceEvents int
	// Trace records the full structured execution trace (every transfer,
	// policy decision, kernel span and stall) into Result.Trace, for the
	// JSONL/Chrome exports. Off by default; the instrumented paths cost a
	// single nil-check when disabled.
	Trace bool
	// SlowTier selects the slow device technology: "" or "nvram"
	// (Optane DC, the paper's platform) or "cxl" (disaggregated remote
	// DRAM, the §VI extension target). Policies are untouched by the
	// switch — only the platform description changes, which is the
	// paper's portability claim.
	SlowTier string
	// CheckInvariants validates the full state machine after every
	// iteration (tests; cheap relative to the simulation itself).
	CheckInvariants bool
	// CheckEveryAdvance attaches the invariants checker to the virtual
	// clock: the platform/state-machine audit runs at every point
	// simulated time moves (carun -check, fuzzing). Much more expensive
	// than CheckInvariants; off by default.
	CheckEveryAdvance bool
	// FaultSpec, when non-empty, is a faults.Parse schedule injected into
	// the run: transient fast-tier allocation failures, copy-engine
	// stalls/errors, bandwidth-collapse episodes and capacity shrinks.
	// Empty (the default) wires no injector, keeping runs byte-identical
	// to builds without the fault layer (CachedArrays runs only).
	FaultSpec string
	// Metrics, when non-nil, is sampled on its virtual-time cadence
	// throughout the run: every simulator layer registers its series
	// (occupancy, bandwidth, queue depths, decision counters) and the
	// virtual clock drives sampling. Nil (the default) records nothing
	// and keeps runs byte-identical — the registry never advances the
	// clock or touches simulation state.
	Metrics *metrics.Registry
}

// Canonical returns the config with every zero field replaced by its
// paper default — the form every runner normalizes to before executing
// (and the form Result.Config records). Two configs that canonicalize
// equally describe the same run, which is what the scheduler's
// content-addressed result cache keys on.
func (c Config) Canonical() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.FastCapacity == 0 {
		c.FastCapacity = memsim.DefaultFastCapacity
	}
	if c.SlowCapacity == 0 {
		c.SlowCapacity = memsim.DefaultSlowCapacity
	}
	if c.CopyThreads == 0 {
		c.CopyThreads = memsim.DefaultCopyThreads
	}
	if c.Iterations == 0 {
		c.Iterations = 4
	}
	if c.TwoLM.LineSize == 0 {
		c.TwoLM = twolm.DefaultConfig()
	}
	return c
}

// HeapSample is one point of the Fig. 3 occupancy curve.
type HeapSample struct {
	Time float64 // virtual seconds since the sampled iteration began
	Used int64   // resident heap bytes
}

// IterationMetrics captures one iteration's measurements.
type IterationMetrics struct {
	Time        float64 // wall-clock (virtual) duration
	ComputeTime float64 // kernel execution time (includes kernel memory stalls)
	MoveTime    float64 // synchronous data-movement stalls outside kernels
	GCTime      float64 // collector pauses
	Fast        memsim.Counters
	Slow        memsim.Counters
	Cache       twolm.Stats // 2LM runs only
}

// Result is the aggregate outcome of a run. Traffic and times are averaged
// over the measured (post-warm-up) iterations.
type Result struct {
	ModelName string
	Mode      string
	Config    Config

	// IterTime is the average per-iteration virtual time (Fig. 2, 7).
	IterTime float64
	// ComputeTime and MoveTime split IterTime into kernel execution and
	// synchronous movement stalls; ProjectedAsyncTime = IterTime -
	// MoveTime is Fig. 7's "perfectly asynchronous data movement" line.
	ComputeTime        float64
	MoveTime           float64
	GCTime             float64
	ProjectedAsyncTime float64

	// Fast/Slow hold per-iteration average traffic (Fig. 5) and busy
	// time. FastBusUtil/SlowBusUtil are the Fig. 6 metric: achieved
	// bandwidth (bytes moved / iteration time) as a fraction of the
	// device's mixed peak bandwidth — what the paper's hardware counters
	// measure.
	Fast        memsim.Counters
	Slow        memsim.Counters
	FastBusUtil float64
	SlowBusUtil float64
	// FastPeakBW/SlowPeakBW are the mixed peak bandwidths used for the
	// utilization computation, recorded by the runner. Exported so a
	// Result survives a serialization round trip intact (the scheduler's
	// result cache relies on reflect.DeepEqual with a fresh run).
	FastPeakBW float64
	SlowPeakBW float64

	// Cache holds the DRAM-cache tag statistics (Fig. 4; 2LM only).
	Cache twolm.Stats

	// HeapSamples is the Fig. 3 occupancy series for the last measured
	// iteration (when Config.SampleHeap).
	HeapSamples []HeapSample
	// PeakHeap is the maximum resident heap observed.
	PeakHeap int64

	// Iterations holds the raw per-iteration metrics.
	Iterations []IterationMetrics

	// Runtime-side statistics (CachedArrays runs).
	Policy policy.Stats
	DM     dm.Stats
	GC     gcsim.Stats

	// Adaptive holds the adaptive-layer decision counters when the run
	// used an adaptive policy stack (CA:OG / CA:TG / CA:OGTG); zero for
	// the static paper modes.
	Adaptive policy.AdaptiveStats

	// Faults aggregates the injector's activity when Config.FaultSpec was
	// set (zero otherwise).
	Faults faults.Stats
	// InvariantChecks counts the audits run when Config.CheckEveryAdvance
	// was set.
	InvariantChecks int64

	// Events holds the tail of the data-manager event log when
	// Config.TraceEvents was set (CachedArrays runs only).
	Events []dm.Event

	// Trace holds the structured execution trace when Config.Trace was
	// set. The trailing totals event makes it self-contained:
	// tracing.Verify(Trace) re-derives the aggregates above from the
	// events and demands exact equality.
	Trace []tracing.Event
}

// aggregate fills the averaged fields from the measured iterations
// (skipping the warm-up iteration when more than one ran).
func (r *Result) aggregate() {
	measured := r.Iterations
	if len(measured) > 1 {
		measured = measured[1:]
	}
	n := float64(len(measured))
	for _, it := range measured {
		r.IterTime += it.Time / n
		r.ComputeTime += it.ComputeTime / n
		r.MoveTime += it.MoveTime / n
		r.GCTime += it.GCTime / n
		r.Fast.ReadBytes += it.Fast.ReadBytes / int64(n)
		r.Fast.WriteBytes += it.Fast.WriteBytes / int64(n)
		r.Fast.BusyTime += it.Fast.BusyTime / n
		r.Slow.ReadBytes += it.Slow.ReadBytes / int64(n)
		r.Slow.WriteBytes += it.Slow.WriteBytes / int64(n)
		r.Slow.BusyTime += it.Slow.BusyTime / n
		r.Cache.Hits += it.Cache.Hits / int64(n)
		r.Cache.CleanMisses += it.Cache.CleanMisses / int64(n)
		r.Cache.DirtyMisses += it.Cache.DirtyMisses / int64(n)
	}
	r.ProjectedAsyncTime = r.IterTime - r.MoveTime
	if r.IterTime > 0 && r.FastPeakBW > 0 {
		r.FastBusUtil = float64(r.Fast.TotalBytes()) / r.IterTime / r.FastPeakBW
	}
	if r.IterTime > 0 && r.SlowPeakBW > 0 {
		r.SlowBusUtil = float64(r.Slow.TotalBytes()) / r.IterTime / r.SlowPeakBW
	}
}

// recordPeaks captures the platform's mixed peak bandwidths for the
// utilization computation.
func (r *Result) recordPeaks(p *memsim.Platform) {
	r.FastPeakBW = (p.Fast.Profile.PeakRead + p.Fast.Profile.PeakWrite) / 2
	r.SlowPeakBW = (p.Slow.Profile.PeakRead + p.Slow.Profile.PeakWrite) / 2
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s %s: iter=%s move=%s dramR=%s dramW=%s nvR=%s nvW=%s util=%.0f%%",
		r.ModelName, r.Mode, units.Seconds(r.IterTime), units.Seconds(r.MoveTime),
		units.Bytes(r.Fast.ReadBytes), units.Bytes(r.Fast.WriteBytes),
		units.Bytes(r.Slow.ReadBytes), units.Bytes(r.Slow.WriteBytes),
		100*r.FastBusUtil)
}

// kernelAccess is the access shape of oneDNN-class kernels computing
// in place: blocked/tiled 32 KiB runs (far from pure memcpy — this is the
// paper's "traffic shaping" asymmetry: explicit copies stream at peak
// bandwidth, in-place kernel access does not, §V-b) with regular stores
// (the kernels are NOT non-temporal-store optimized — §V-d).
var kernelAccess = memsim.Access{Threads: 28, Granularity: 32 << 10, NonTemporal: false}

// amplified reports whether a tensor kind is subject to the kernel's
// ReadFactor: convolutions re-stream their *data input* (the activation)
// once per output-channel block; weights and gradients stream once.
func amplified(k models.TensorKind) bool {
	return k == models.Activation || k == models.Input
}

// kernelTime computes the roofline time for one kernel: compute overlapped
// with per-device memory streams; the slowest resource wins. Traffic is
// recorded on the devices.
func kernelTime(p *memsim.Platform, flops float64, readBytes, writeBytes [2]int64) float64 {
	compute := flops/p.Compute.PeakFlops + p.Compute.LaunchOverhead
	var devTime [2]float64
	devs := [2]*memsim.Device{p.Fast, p.Slow}
	for i, d := range devs {
		devTime[i] += d.Read(readBytes[i], kernelAccess)
		devTime[i] += d.Write(writeBytes[i], kernelAccess)
	}
	t := compute
	if devTime[0] > t {
		t = devTime[0]
	}
	if devTime[1] > t {
		t = devTime[1]
	}
	return t
}
