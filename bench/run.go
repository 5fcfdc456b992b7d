package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// recordedFleetDigest is the SHA-256 of the fleet's cluster.Result JSON
// for seed recordedFleetSeed. Any other seed is checked for repeating
// itself across the run's bodies.
const (
	recordedFleetSeed   = 42
	recordedFleetDigest = "7a62f58dc0f2d705692abfd69efa155a16bae7e5ddae2a8b2e8e1de6a80d2328"
)

// setupProbes is how many set-up-only processes a run starts before it
// measures, so that setup_s is a median of many short samples.
const setupProbes = 24

// runBudget bounds a run: once the minimum bodies have run, no body
// starts that would likely end after it. bodyDeadline kills a body that
// overruns, so a run always exits within three minutes.
const (
	runBudget    = 150 * time.Second
	bodyDeadline = 170 * time.Second
)

// buildDir holds the benchmark's build, scratch state and run records,
// relative to the repository root the benchmark runs from.
const buildDir = ".bench_build"

// benchRun is one invocation of the benchmark on one workload.
type benchRun struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool

	bin, work string
	start     time.Time
	ctx       context.Context

	setups    []float64    // seconds from process start to body start
	bodies    []bodyReport // timed bodies in order; traced runs alternate traced, untraced
	attempted int
	failed    int
}

func runBenchmark(workload string, seed int64, seconds float64, traced bool) error {
	switch workload {
	case "paper-suite", "fleet", "replay-warm":
	default:
		return fmt.Errorf("unknown workload %q (want paper-suite, fleet or replay-warm)", workload)
	}
	r := &benchRun{workload: workload, seed: seed, seconds: seconds, traced: traced, start: time.Now()}
	steal0 := stealSeconds()
	bin, err := os.Executable()
	if err != nil {
		return err
	}
	r.bin = bin
	r.work = filepath.Join(buildDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(r.work)
	ctx, cancel := context.WithDeadline(context.Background(), r.start.Add(bodyDeadline))
	defer cancel()
	r.ctx = ctx

	if err := r.measure(); err != nil {
		return err
	}
	info := r.info(stealSeconds() - steal0)
	return r.report(info)
}

// measure fills the caches replay-warm reads, probes set-up, and runs
// bodies until the run's time is up.
func (r *benchRun) measure() error {
	var want map[string]string
	var err error
	shared := ""
	if r.workload == "replay-warm" {
		shared = filepath.Join(r.work, "cache")
		want, err = r.fill(shared)
	} else {
		want, err = r.expected(r.workload)
	}
	if err != nil {
		return err
	}
	for i := 0; i < setupProbes; i++ {
		dir, err := r.cacheDir(shared)
		if err != nil {
			return err
		}
		if _, err := r.spawn(r.workload, dir, false, true); err != nil {
			return err
		}
	}
	t0 := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		if r.enough() && (time.Since(t0).Seconds() >= r.seconds || time.Since(r.start)+last > runBudget) {
			return nil
		}
		dir, err := r.cacheDir(shared)
		if err != nil {
			return err
		}
		b0 := time.Now()
		traced := r.traced && i%2 == 0
		rep, err := r.spawn(r.workload, dir, traced, false)
		if err != nil {
			return err
		}
		last = time.Since(b0)
		r.check(rep, want)
		if traced && len(r.bodies) > 0 {
			r.checkCounts(r.bodies[0].Counts, rep.Counts)
		}
		r.bodies = append(r.bodies, *rep)
	}
}

// enough reports whether the bodies run so far make a result: one, or in
// a traced run two traced and one untraced, so the traced counts can be
// checked for repeating and the overhead has a base.
func (r *benchRun) enough() bool {
	if !r.traced {
		return len(r.bodies) >= 1
	}
	return len(r.bodies) >= 3
}

// cacheDir is the body's result cache: the shared, filled one on
// replay-warm, otherwise a fresh empty directory.
func (r *benchRun) cacheDir(shared string) (string, error) {
	if shared != "" {
		return shared, nil
	}
	return os.MkdirTemp(r.work, "cache-")
}

// expected returns the digests a workload's outputs must have: the
// committed results/*.csv for the suite, read now so that a deliberate
// re-baseline carries over, and the recorded fleet digest for its seed.
func (r *benchRun) expected(workload string) (map[string]string, error) {
	want := map[string]string{}
	switch workload {
	case "paper-suite":
		for _, f := range suite {
			for _, name := range f.outputs {
				b, err := os.ReadFile(filepath.Join("results", name+".csv"))
				if err != nil {
					return nil, fmt.Errorf("expected output: %w", err)
				}
				want[name] = digest(b)
			}
		}
	case "fleet":
		if r.seed == recordedFleetSeed && recordedFleetDigest != "" {
			want[fleetOutput] = recordedFleetDigest
		}
	}
	return want, nil
}

// fill runs the paper suite and the fleet cold into one cache directory,
// checks their outputs, and returns the cold outputs: what every replay
// must reproduce byte for byte.
func (r *benchRun) fill(dir string) (map[string]string, error) {
	cold := map[string]string{}
	for _, w := range []string{"paper-suite", "fleet"} {
		want, err := r.expected(w)
		if err != nil {
			return nil, err
		}
		rep, err := r.spawn(w, dir, false, false)
		if err != nil {
			return nil, err
		}
		r.check(rep, want)
		for k, v := range rep.Outputs {
			cold[k] = v
		}
	}
	return cold, nil
}

// spawn runs one body process and returns its report. A body of the
// run's own workload also records its set-up time.
func (r *benchRun) spawn(workload, cacheDir string, traced, setupOnly bool) (*bodyReport, error) {
	args := []string{"-body", workload, "-cache", cacheDir, "-seed", strconv.FormatInt(r.seed, 10)}
	if traced {
		args = append(args, "-traced")
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.CommandContext(r.ctx, r.bin, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	started := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s body: %w", workload, err)
	}
	var rep bodyReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("%s body report: %w", workload, err)
	}
	if workload == r.workload {
		r.setups = append(r.setups, float64(rep.BodyStartNS-started.UnixNano())/1e9)
	}
	return &rep, nil
}

// check compares a body's outputs with the expected digests. A name
// without an expectation takes the first body's digest, which every
// later body must then repeat.
func (r *benchRun) check(rep *bodyReport, want map[string]string) {
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "cabench: body error:", e)
	}
	names := map[string]bool{}
	for k := range want {
		names[k] = true
	}
	for k := range rep.Outputs {
		names[k] = true
	}
	for _, name := range sortedKeys(names) {
		r.attempted++
		got := rep.Outputs[name]
		exp, known := want[name]
		switch {
		case !known:
			want[name] = got
		case got != exp:
			r.failed++
			fmt.Fprintf(os.Stderr, "cabench: output %s: digest %.12s, want %.12s\n", name, got, exp)
		}
	}
}

// checkCounts demands that a traced body's counts of simulated work
// repeat the first traced body's exactly.
func (r *benchRun) checkCounts(first, got map[string]float64) {
	r.attempted++
	for k, v := range first {
		if got[k] != v || len(got) != len(first) {
			r.failed++
			fmt.Fprintf(os.Stderr, "cabench: count %s = %v, first traced body %v\n", k, got[k], v)
			return
		}
	}
}

// runInfo is recorded beside every run, so that a noisy run (host steal)
// or a different machine can be told apart.
type runInfo struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Traced      bool    `json:"traced"`
	Nproc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	StealS      float64 `json:"steal_s"`
	RunS        float64 `json:"run_s"`
	SetupProbes int     `json:"setup_samples"`
	FailRatio   float64 `json:"fail_ratio"`
	// BodyWallS lists every body's wall_s in order, to tell noise within
	// a run from drift between runs.
	BodyWallS []float64 `json:"body_wall_s"`
}

func (r *benchRun) info(steal float64) runInfo {
	info := runInfo{
		Workload: r.workload, Seed: r.seed, Traced: r.traced,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), StealS: steal, RunS: time.Since(r.start).Seconds(),
		SetupProbes: len(r.setups), FailRatio: ratio(float64(r.failed), float64(r.attempted)),
	}
	for _, b := range r.bodies {
		info.BodyWallS = append(info.BodyWallS, b.WallS)
	}
	return info
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the run's record and every metric by name and unit, then
// the result line, and appends the record to .bench_build/runs.jsonl.
func (r *benchRun) report(info runInfo) error {
	var metrics map[string]metric
	if r.traced {
		metrics = r.perLayer()
		if err := r.writeSpans(); err != nil {
			return err
		}
	} else {
		metrics = r.endToEnd()
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}

	rec, err := json.Marshal(struct {
		runInfo
		Metrics map[string]metric `json:"metrics"`
	}{info, metrics})
	if err != nil {
		return err
	}
	if err := appendLine(filepath.Join(buildDir, "runs.jsonl"), rec); err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "run %s\n", rec)
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	if !r.traced {
		// Not end-to-end metrics of every workload, so not in the result.
		fmt.Fprintf(w, "%-32s %14.6g %s\n", "fail_ratio", info.FailRatio, "ratio")
		if d := r.bodies[0].Dispatches; d > 0 {
			fmt.Fprintf(w, "%-32s %14.6g %s\n", "dispatch_per_s", float64(d)/metrics["wall_s"].Value, "1/s")
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return w.Flush()
}

// endToEnd is the untraced run's metrics: medians over its bodies.
func (r *benchRun) endToEnd() map[string]metric {
	col := func(f func(bodyReport) float64) float64 {
		vs := make([]float64, len(r.bodies))
		for i, b := range r.bodies {
			vs[i] = f(b)
		}
		return median(vs)
	}
	return map[string]metric{
		"wall_s":      {col(func(b bodyReport) float64 { return b.WallS }), "s"},
		"cpu_s":       {col(func(b bodyReport) float64 { return b.CPUS }), "s"},
		"alloc_mb":    {col(func(b bodyReport) float64 { return b.AllocMB }), "MB"},
		"peak_rss_mb": {col(func(b bodyReport) float64 { return b.PeakRSSMB }), "MB"},
		"setup_s":     {median(r.setups), "s"},
	}
}

// hostLayers are the modules reported by name; any other module's time
// goes to host.other_s, so the host.*_s metrics always sum to
// host.total_s.
var hostLayers = []string{
	"alloc", "cluster", "core", "dm", "engine", "experiments", "faults", "gcsim", "invariants", "memsim",
	"metrics", "models", "pagemig", "planner", "policy", "sched", "trace", "tracing", "twolm", "units",
	runtimeLayer,
}

// spanNames are the spans every traced run reports, present or not.
var spanNames = []string{
	"experiments.matrix", "experiments.fig3", "experiments.fig7", "experiments.fig7async",
	"experiments.baselines", "experiments.beyond", "experiments.ablations",
	"experiments.cxl", "experiments.dlrm", "experiments.tables", "cluster.run",
}

// countUnits are the counts of simulated work every traced run reports.
var countUnits = map[string]string{
	"sched.cells": "count", "sched.simulations": "count", "sched.dedups": "count",
	"sched.cache_hits": "count", "sched.cache_misses": "count", "sched.cache_stores": "count",
	"sched.cache_bytes": "B", "sched.hit_ratio": "ratio",
	"twolm.accesses": "count", "twolm.hit_ratio": "ratio", "twolm.dirty_misses": "count",
	"dm.copies": "count", "dm.bytes_moved": "B", "dm.region_allocs": "count", "dm.evictions": "count",
	"policy.prefetches": "count", "policy.evictions": "count",
	"gcsim.collections": "count", "cluster.dispatches": "count",
}

// perLayer is the traced run's metrics. Host time is the mean over the
// traced bodies (means add up, so the layers still sum to the total);
// spans are medians; counts repeat exactly, so the first body's stand.
func (r *benchRun) perLayer() map[string]metric {
	var traced, untraced []bodyReport
	for i, b := range r.bodies {
		if i%2 == 0 {
			traced = append(traced, b)
		} else {
			untraced = append(untraced, b)
		}
	}
	m := map[string]metric{}
	named := map[string]bool{}
	for _, l := range hostLayers {
		named[l] = true
	}
	var other, total float64
	for _, b := range traced {
		for l, s := range b.Host {
			if !named[l] {
				other += s
			}
		}
		total += b.HostS
	}
	n := float64(len(traced))
	for _, l := range hostLayers {
		var sum float64
		for _, b := range traced {
			sum += b.Host[l]
		}
		m["host."+l+"_s"] = metric{sum / n, "s"}
	}
	m["host.other_s"] = metric{other / n, "s"}
	m["host.total_s"] = metric{total / n, "s"}

	runS := make([]float64, len(traced))
	for _, name := range spanNames {
		vs := make([]float64, len(traced))
		for i, b := range traced {
			for _, s := range b.Spans {
				if s.Name == name {
					vs[i] += s.EndS - s.StartS
				}
			}
		}
		if name == "cluster.run" {
			copy(runS, vs)
		}
		m[name+"_s"] = metric{median(vs), "s"}
	}
	for k, unit := range countUnits {
		m[k] = metric{traced[0].Counts[k], unit}
	}
	dispatches := float64(traced[0].Dispatches)
	perDispatch := make([]float64, len(traced))
	for i := range traced {
		perDispatch[i] = ratio(runS[i]*1e9, dispatches)
	}
	m["cluster.ns_per_dispatch"] = metric{median(perDispatch), "ns"}

	wall := func(bs []bodyReport) float64 {
		vs := make([]float64, len(bs))
		for i, b := range bs {
			vs[i] = b.WallS
		}
		return median(vs)
	}
	m["cluster.dispatch_per_s"] = metric{ratio(dispatches, wall(untraced)), "1/s"}
	m["bench.trace_overhead_pct"] = metric{(wall(traced)/wall(untraced) - 1) * 100, "%"}
	m["bench.fail_ratio"] = metric{ratio(float64(r.failed), float64(r.attempted)), "ratio"}
	return m
}

// writeSpans keeps the traced bodies' spans: one JSON line per span in
// .bench_build/spans/<workload>-<seed>-<time>.jsonl.
func (r *benchRun) writeSpans() error {
	dir := filepath.Join(buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, b := range r.bodies {
		for _, s := range b.Spans {
			if err := enc.Encode(struct {
				Body int `json:"body"`
				span
			}{i, s}); err != nil {
				return err
			}
		}
	}
	name := fmt.Sprintf("%s-%d-%d.jsonl", r.workload, r.seed, r.start.UnixNano())
	return os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644)
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedKeys(m map[string]bool) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// stealSeconds is the host's cumulative steal time over all CPUs, from
// the "cpu" line of /proc/stat (in USER_HZ = 100 ticks per second); 0
// where /proc/stat is unreadable, as it only annotates the run.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100
}

// procStatusKB reads a kB field of /proc/self/status.
func procStatusKB(field string) (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, errors.New(field + " not in /proc/self/status")
}

// commit names the code measured: the git commit when the checkout is a
// repository, otherwise "tree-" and a digest of its files. It only labels
// the run, so unreadable files are skipped.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == buildDir) {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() {
			f, err := os.Open(path)
			if err != nil {
				return nil
			}
			defer f.Close()
			fmt.Fprintf(h, "%s\x00", path)
			io.Copy(h, f)
		}
		return nil
	})
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}
