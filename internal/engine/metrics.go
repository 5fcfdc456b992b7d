package engine

import (
	"cachedarrays/internal/memsim"
	"cachedarrays/internal/metrics"
)

// registerPlatformMetrics registers the device- and copy-engine-level
// series: cumulative traffic and busy time per device, achieved bandwidth
// as a fraction of the mixed peak (the Fig. 6 bus-utilization metric,
// sampled over time instead of averaged per run), and the asynchronous
// mover's queue depth and backlog. A nil registry registers nothing.
// Sampling is wired separately (Env.attachRegistry): the clock drives it
// on a solo run, the cluster's fan-out hook on a shared platform.
// RegisterPlatformMetrics exposes the platform series to owners outside
// the engine: the cluster registers them into its cluster-level registry
// so a multi-tenant run exports the shared devices' traffic and
// utilization alongside the per-tenant series.
func RegisterPlatformMetrics(reg *metrics.Registry, p *memsim.Platform) {
	registerPlatformMetrics(reg, p)
}

func registerPlatformMetrics(reg *metrics.Registry, p *memsim.Platform) {
	if !reg.Enabled() {
		return
	}
	for _, d := range []*memsim.Device{p.Fast, p.Slow} {
		name := d.Name
		reg.CounterFunc("mem_"+name+"_read_bytes", func() float64 {
			return float64(d.Counters().ReadBytes)
		})
		reg.CounterFunc("mem_"+name+"_write_bytes", func() float64 {
			return float64(d.Counters().WriteBytes)
		})
		reg.CounterFunc("mem_"+name+"_busy_seconds", func() float64 {
			return d.Counters().BusyTime
		})
		reg.Gauge("mem_"+name+"_bw_util", bwUtil(p, d))
	}
	reg.Gauge("copy_queue_depth", func() float64 { return float64(p.Copier.QueueDepth()) })
	reg.Gauge("copy_backlog_seconds", func() float64 { return p.Copier.Backlog() })
}

// bwUtil returns device d's achieved bandwidth over the run so far as a
// fraction of its mixed peak — the Fig. 6 bus-utilization metric. It is
// both the mem_<dev>_bw_util series and the signal online guidance
// steers by, so the published number and the steered-by number cannot
// diverge.
func bwUtil(p *memsim.Platform, d *memsim.Device) func() float64 {
	peak := (d.Profile.PeakRead + d.Profile.PeakWrite) / 2
	return func() float64 {
		now := p.Clock.Now()
		if now <= 0 || peak <= 0 {
			return 0
		}
		return float64(d.Counters().TotalBytes()) / now / peak
	}
}

// runMetrics is the engine's own instrumentation: the per-iteration kernel
// vs. stall split as cumulative counters plus duration histograms. All
// fields are nil when metrics are off — every method on them is a no-op,
// so call sites stay unconditional.
type runMetrics struct {
	kernelSeconds *metrics.Counter
	stallSeconds  *metrics.Counter
	iterations    *metrics.Counter
	kernelHist    *metrics.Histogram
	iterHist      *metrics.Histogram
}

// newRunMetrics registers the engine series. With a nil registry every
// field stays nil (nil-safe no-ops).
func newRunMetrics(reg *metrics.Registry) runMetrics {
	return runMetrics{
		kernelSeconds: reg.Counter("engine_kernel_seconds"),
		stallSeconds:  reg.Counter("engine_stall_seconds"),
		iterations:    reg.Counter("engine_iterations"),
		kernelHist:    reg.Histogram("engine_kernel"),
		iterHist:      reg.Histogram("engine_iter"),
	}
}

func (rm runMetrics) kernel(dt float64) {
	rm.kernelSeconds.Add(dt)
	rm.kernelHist.Observe(dt)
}

func (rm runMetrics) stall(dt float64) {
	if dt > 0 {
		rm.stallSeconds.Add(dt)
	}
}

func (rm runMetrics) iter(dt float64) {
	rm.iterations.Inc()
	rm.iterHist.Observe(dt)
}

// finishMetrics stamps the run identity into the registry and takes the
// final sample so the series ends at the run's last virtual instant.
func finishMetrics(reg *metrics.Registry, model, mode string, now float64) {
	if !reg.Enabled() {
		return
	}
	reg.SetMeta("model", model)
	reg.SetMeta("mode", mode)
	reg.Flush(now)
}
