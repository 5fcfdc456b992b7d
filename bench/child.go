package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"cachedarrays/internal/cluster"
	"cachedarrays/internal/engine"
	"cachedarrays/internal/experiments"
	"cachedarrays/internal/models"
	"cachedarrays/internal/sched"
	"cachedarrays/internal/units"
)

// A body is one timed execution of a workload in a fresh process. The
// parent starts the process; the process sets up, runs the body once and
// prints a bodyReport as its only line of standard output.

// suiteIterations is the paper's iteration count: 4, the first a warm-up.
const suiteIterations = 4

// fleetTenants is the fleet's job count. Registry and dispatch cost grow
// faster than the tenant count, so 1024 makes the per-dispatch work of
// the metrics layer the fleet's dominant cost.
const fleetTenants = 1024

// fleetPlatform is the shared platform the fleet runs on (the one the
// BENCH_cluster fleet rows use): a tight fast tier, so tenants contend.
var fleetPlatform = engine.Config{
	FastCapacity: 16 * units.MB,
	SlowCapacity: 2 * units.GB,
	Iterations:   24,
}

// figure is one driver call of the paper suite: the span it is timed
// under and the CSV outputs it renders, in cafigures' order.
type figure struct {
	span    string
	outputs []string
	run     func(experiments.Options) ([]*experiments.Table, error)
}

func one(f func(experiments.Options) (*experiments.Table, error)) func(experiments.Options) ([]*experiments.Table, error) {
	return func(o experiments.Options) ([]*experiments.Table, error) {
		t, err := f(o)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{t}, nil
	}
}

// suite lists every cafigures figure. Table III and the copy tables are
// closed-form, so they share the "tables" span.
var suite = []figure{
	{"tables", []string{"table3"}, func(experiments.Options) ([]*experiments.Table, error) {
		return []*experiments.Table{experiments.TableIII()}, nil
	}},
	{"matrix", []string{"fig2", "fig4", "fig5", "fig6"}, func(o experiments.Options) ([]*experiments.Table, error) {
		m, err := experiments.RunMatrix(o)
		if err != nil {
			return nil, err
		}
		return []*experiments.Table{experiments.Fig2(m), experiments.Fig4(m), experiments.Fig5(m), experiments.Fig6(m)}, nil
	}},
	{"fig3", []string{"fig3"}, one(func(o experiments.Options) (*experiments.Table, error) { return experiments.Fig3(o, 64) })},
	{"fig7", []string{"fig7"}, one(func(o experiments.Options) (*experiments.Table, error) { return experiments.Fig7(o, nil) })},
	{"fig7async", []string{"fig7async"}, one(func(o experiments.Options) (*experiments.Table, error) { return experiments.Fig7Async(o, nil) })},
	{"baselines", []string{"baselines"}, one(experiments.Baselines)},
	{"beyond", []string{"beyond"}, one(experiments.BeyondCNNs)},
	{"ablations", []string{"ablations"}, one(experiments.Ablations)},
	{"cxl", []string{"cxl"}, one(experiments.CXLPortability)},
	{"tables", []string{"copybw", "copysizes"}, func(experiments.Options) ([]*experiments.Table, error) {
		return []*experiments.Table{experiments.CopyBandwidth(), experiments.CopyTransferSizes()}, nil
	}},
	{"dlrm", []string{"dlrm"}, one(func(experiments.Options) (*experiments.Table, error) {
		r, err := experiments.RunDLRM(models.DefaultDLRMConfig())
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	})},
}

// fleetOutput names the fleet's one output: its cluster.Result as JSON.
const fleetOutput = "fleet"

// bodyReport is what a body process tells the parent.
type bodyReport struct {
	// BodyStartNS is the wall clock (Unix ns) at the first call of the
	// timed body; the parent subtracts its own clock at process start.
	BodyStartNS int64   `json:"body_start_ns"`
	WallS       float64 `json:"wall_s"`
	CPUS        float64 `json:"cpu_s"`
	AllocMB     float64 `json:"alloc_mb"`
	PeakRSSMB   float64 `json:"peak_rss_mb"`
	// Outputs maps each output the body produced to the SHA-256 of its
	// bytes; an output whose driver failed is absent.
	Outputs    map[string]string `json:"outputs,omitempty"`
	Errors     []string          `json:"errors,omitempty"`
	Dispatches int               `json:"dispatches"`

	// Traced bodies only.
	Spans  []span             `json:"spans,omitempty"`
	Host   map[string]float64 `json:"host,omitempty"`
	HostS  float64            `json:"host_total_s,omitempty"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// span is one timed call into a public entry point of the simulator, in
// seconds from the body's start. Parent names the part of the body that
// made the call: "suite" or "fleet".
type span struct {
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	Parent string  `json:"parent"`
}

// body is one process's run of a workload.
type body struct {
	workload string
	seed     int64
	traced   bool

	sched *sched.Scheduler
	cache *sched.Cache
	jobs  []cluster.Job
	dir   string

	start   time.Time
	outputs map[string][]byte
	errors  []string
	spans   []span
	res     *cluster.Result
	counts  counter
}

// runBody is the body process's main: set up, report the set-up-only
// probe or run the timed body, and print the report.
func runBody(workload, cacheDir string, seed int64, traced, setupOnly bool) error {
	b := &body{workload: workload, seed: seed, traced: traced, dir: cacheDir}
	if err := b.setup(); err != nil {
		return err
	}
	var rep bodyReport
	if setupOnly {
		rep.BodyStartNS = time.Now().UnixNano()
	} else if err := b.measure(&rep); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// setup opens the result cache and prepares the workload's inputs.
func (b *body) setup() error {
	cache, err := sched.OpenCache(b.dir)
	if err != nil {
		return err
	}
	b.cache = cache
	b.sched = &sched.Scheduler{Workers: runtime.NumCPU(), Cache: cache}
	switch b.workload {
	case "paper-suite":
	case "fleet", "replay-warm":
		b.jobs = cluster.BenchMix(b.seed, fleetTenants)
	default:
		return fmt.Errorf("unknown workload %q", b.workload)
	}
	b.outputs = map[string][]byte{}
	return nil
}

// measure runs the timed body and fills the report.
func (b *body) measure(rep *bodyReport) error {
	var prof bytes.Buffer
	if b.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	cpu0, alloc0 := cpuSeconds(), allocBytes()
	b.start = time.Now()
	rep.BodyStartNS = b.start.UnixNano()

	b.run()

	rep.WallS = time.Since(b.start).Seconds()
	rep.CPUS = cpuSeconds() - cpu0
	rep.AllocMB = float64(allocBytes()-alloc0) / 1e6
	if b.traced {
		pprof.StopCPUProfile()
		a, err := attribute(prof.Bytes())
		if err != nil {
			return err
		}
		rep.Host, rep.HostS = a.Seconds, a.Total
		rep.Spans = b.spans
		if rep.Counts, err = b.countsReport(); err != nil {
			return err
		}
	}
	var err error
	if rep.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	if b.res != nil {
		rep.Dispatches = b.res.Dispatches
		out, err := json.Marshal(b.res)
		if err != nil {
			b.errors = append(b.errors, fmt.Sprintf("cluster result: %v", err))
		} else {
			b.outputs[fleetOutput] = out
		}
	}
	rep.Errors = b.errors
	rep.Outputs = map[string]string{}
	for name, out := range b.outputs {
		rep.Outputs[name] = digest(out)
	}
	return nil
}

// run is the timed body: the paper suite, the fleet, or both replayed.
func (b *body) run() {
	if b.workload != "fleet" {
		b.runSuite()
	}
	if b.workload != "paper-suite" {
		b.runFleet()
	}
}

func (b *body) runSuite() {
	opts := experiments.Options{Iterations: suiteIterations, Sched: b.sched}
	if b.traced {
		opts.Instrument = b.counts.instrument
	}
	for _, f := range suite {
		end := b.span("experiments."+f.span, "suite")
		tabs, err := f.run(opts)
		end()
		if err != nil {
			b.errors = append(b.errors, fmt.Sprintf("%s: %v", f.span, err))
			continue
		}
		for i, t := range tabs {
			b.outputs[f.outputs[i]] = []byte(t.CSV())
		}
	}
}

func (b *body) runFleet() {
	cfg := cluster.Config{Engine: fleetPlatform, Jobs: b.jobs, Sched: b.sched}
	end := b.span("cluster.run", "fleet")
	res, err := cluster.Run(cfg)
	end()
	if err != nil {
		b.errors = append(b.errors, fmt.Sprintf("cluster: %v", err))
		return
	}
	b.res = res
	if b.traced {
		for i := range res.Tenants {
			b.counts.add(res.Tenants[i].Result, 0)
		}
	}
}

// span starts a span when the body is traced and returns its end.
func (b *body) span(name, parent string) func() {
	if !b.traced {
		return func() {}
	}
	t0 := time.Since(b.start).Seconds()
	return func() {
		b.spans = append(b.spans, span{Name: name, StartS: t0, EndS: time.Since(b.start).Seconds(), Parent: parent})
	}
}

// countsReport gathers the traced body's counts of work done.
func (b *body) countsReport() (map[string]float64, error) {
	size, err := dirBytes(b.dir)
	if err != nil {
		return nil, err
	}
	c := b.counts.snapshot()
	st := b.cache.Stats()
	c["sched.simulations"] = float64(b.sched.Simulations())
	c["sched.dedups"] = float64(b.sched.Dedups())
	c["sched.cache_hits"] = float64(st.Hits)
	c["sched.cache_misses"] = float64(st.Misses)
	c["sched.cache_stores"] = float64(st.Stores)
	c["sched.cache_bytes"] = float64(size)
	c["sched.hit_ratio"] = ratio(float64(st.Hits), float64(st.Hits+st.Misses))
	if b.res != nil {
		c["cluster.dispatches"] = float64(b.res.Dispatches)
	}
	return c, nil
}

// counter sums the simulated work of every engine result the body sees:
// the suite's cells through Options.Instrument (which leaves each config
// untouched, so cells stay cacheable) and the fleet's tenants.
type counter struct {
	mu    sync.Mutex
	cells int64
	twolm struct{ hits, accesses, dirty int64 }
	dm    struct{ copies, bytes, regionAllocs, evictions int64 }
	pol   struct{ prefetches, evictions int64 }
	gcs   int64
}

func (c *counter) instrument(string, *engine.Config) func(*engine.Result) error {
	return func(r *engine.Result) error {
		c.add(r, 1)
		return nil
	}
}

// add sums one result; cells is 1 for a suite cell, 0 for a tenant.
func (c *counter) add(r *engine.Result, cells int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells += cells
	c.twolm.hits += r.Cache.Hits
	c.twolm.accesses += r.Cache.Accesses()
	c.twolm.dirty += r.Cache.DirtyMisses
	c.dm.copies += r.DM.Copies
	c.dm.bytes += r.DM.BytesFastToSlow + r.DM.BytesSlowToFast + r.DM.BytesWithinFast + r.DM.BytesWithinSlow
	c.dm.regionAllocs += r.DM.RegionAllocs
	c.dm.evictions += r.DM.Evictions
	c.pol.prefetches += r.Policy.Prefetches
	c.pol.evictions += r.Policy.Evictions
	c.gcs += r.GC.Collections
}

func (c *counter) snapshot() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return map[string]float64{
		"sched.cells":        float64(c.cells),
		"twolm.accesses":     float64(c.twolm.accesses),
		"twolm.hit_ratio":    ratio(float64(c.twolm.hits), float64(c.twolm.accesses)),
		"twolm.dirty_misses": float64(c.twolm.dirty),
		"dm.copies":          float64(c.dm.copies),
		"dm.bytes_moved":     float64(c.dm.bytes),
		"dm.region_allocs":   float64(c.dm.regionAllocs),
		"dm.evictions":       float64(c.dm.evictions),
		"policy.prefetches":  float64(c.pol.prefetches),
		"policy.evictions":   float64(c.pol.evictions),
		"gcsim.collections":  float64(c.gcs),
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF and a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// allocBytes is the Go heap's cumulative allocation.
func allocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() (float64, error) {
	kb, err := procStatusKB("VmHWM")
	return float64(kb) / 1e3, err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	return n, err
}
