package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/metrics"
	"cachedarrays/internal/models"
	"cachedarrays/internal/units"
)

// runOnce executes a small CA run with a metrics registry attached and
// writes its CSV and summary into dir, returning the two paths.
func runOnce(t *testing.T, dir, tag string, iters int) (csvPath, sumPath string) {
	t.Helper()
	reg := metrics.New(0)
	reg.SetMeta("run", tag)
	cfg := engine.Config{Iterations: iters, Metrics: reg,
		FastCapacity: 2 * units.GB, SlowCapacity: 16 * units.GB}
	if _, err := engine.Run(models.MLP(4096, []int{4096, 4096}, 1000, 16), "CA:LM", cfg); err != nil {
		t.Fatal(err)
	}
	csvPath = filepath.Join(dir, tag+".csv")
	sumPath = filepath.Join(dir, tag+".json")
	cf, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteCSV(cf); err != nil {
		t.Fatal(err)
	}
	cf.Close()
	sf, err := os.Create(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.WriteSummary(sf, reg.Summarize()); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	return csvPath, sumPath
}

func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := cliMain(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestShowCSVAndSummary(t *testing.T) {
	dir := t.TempDir()
	csvPath, sumPath := runOnce(t, dir, "show", 2)

	code, out, errOut := runCLI("show", csvPath)
	if code != 0 {
		t.Fatalf("show csv: exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "engine_iterations") || !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Errorf("show csv output lacks series or sparkline:\n%s", out)
	}

	code, out, errOut = runCLI("show", sumPath)
	if code != 0 {
		t.Fatalf("show summary: exit %d, stderr: %s", code, errOut)
	}
	for _, want := range []string{"run:", "engine_iterations", "mean", "last"} {
		if !strings.Contains(out, want) {
			t.Errorf("show summary output missing %q:\n%s", want, out)
		}
	}
}

// TestDiffSelfIsZero is the gate's baseline property: a summary diffed
// against itself reports nothing and exits 0.
func TestDiffSelfIsZero(t *testing.T) {
	dir := t.TempDir()
	_, sumPath := runOnce(t, dir, "self", 2)
	code, out, errOut := runCLI("diff", "-rel", "0", sumPath, sumPath)
	if code != 0 {
		t.Fatalf("self-diff: exit %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if !strings.Contains(out, "no deltas") {
		t.Errorf("self-diff output: %s", out)
	}
}

// TestDiffTripsOnPerturbedRun perturbs the configuration (one extra
// iteration) and checks the gate flags it.
func TestDiffTripsOnPerturbedRun(t *testing.T) {
	dir := t.TempDir()
	_, base := runOnce(t, dir, "base", 2)
	_, cur := runOnce(t, dir, "cur", 3)
	code, out, _ := runCLI("diff", "-rel", "0.05", base, cur)
	if code != 1 {
		t.Fatalf("perturbed diff: exit %d, want 1\nstdout: %s", code, out)
	}
	if !strings.Contains(out, "engine_iterations") {
		t.Errorf("diff report does not name the moved series:\n%s", out)
	}
}

// writeSummary fabricates a summary file with fixed gauge values and the
// given run/tenant meta — the shape of a cacluster -metrics-summary
// export, without running a cluster.
func writeSummary(t *testing.T, dir, file, runName, tenantMeta string, series map[string]float64) string {
	t.Helper()
	reg := metrics.New(0)
	reg.SetMeta("run", runName)
	if tenantMeta != "" {
		reg.SetMeta("tenant", tenantMeta)
	}
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := series[n]
		reg.Gauge(n, func() float64 { return v })
	}
	reg.Flush(0)
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.WriteSummary(f, reg.Summarize()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

// TestDiffTenantScopesClusterSummary: -tenant restricts the gate to one
// tenant's cluster_<label>_* series, so a neighbour's drift neither trips
// nor hides behind the selected tenant.
func TestDiffTenantScopesClusterSummary(t *testing.T) {
	dir := t.TempDir()
	base := writeSummary(t, dir, "base.json", "cluster", "", map[string]float64{
		"cluster_a_fast_bytes": 100,
		"cluster_b_fast_bytes": 50,
		"cluster_dispatches":   7,
	})
	cur := writeSummary(t, dir, "cur.json", "cluster", "", map[string]float64{
		"cluster_a_fast_bytes": 100,
		"cluster_b_fast_bytes": 80, // only tenant b moved
		"cluster_dispatches":   7,
	})

	// Tenant a is unchanged: scoped self-consistent diff passes.
	if code, out, errOut := runCLI("diff", "-rel", "0", "-tenant", "a", base, cur); code != 0 {
		t.Fatalf("-tenant a: exit %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	// Tenant b moved: scoped diff trips and names the series.
	code, out, _ := runCLI("diff", "-rel", "0", "-tenant", "b", base, cur)
	if code != 1 || !strings.Contains(out, "cluster_b_fast_bytes") {
		t.Fatalf("-tenant b: exit %d\nstdout: %s", code, out)
	}
	// Unscoped diff still sees the full export.
	if code, _, _ := runCLI("diff", "-rel", "0", base, cur); code != 1 {
		t.Fatalf("unscoped diff: exit %d, want 1", code)
	}
	// An unknown tenant is an error, not a vacuous pass.
	code, _, errOut := runCLI("diff", "-tenant", "zz", base, cur)
	if code != 1 || !strings.Contains(errOut, "no series for tenant") {
		t.Fatalf("-tenant zz: exit %d, stderr: %s", code, errOut)
	}
}

// TestDiffRunGuard: -run refuses to compare a summary from a different
// run instead of reporting spurious deltas.
func TestDiffRunGuard(t *testing.T) {
	dir := t.TempDir()
	s := writeSummary(t, dir, "s.json", "cluster", "", map[string]float64{"cluster_dispatches": 3})
	if code, _, _ := runCLI("diff", "-rel", "0", "-run", "cluster", s, s); code != 0 {
		t.Fatalf("matching -run: exit %d, want 0", code)
	}
	code, _, errOut := runCLI("diff", "-run", "other", s, s)
	if code != 1 || !strings.Contains(errOut, `not "other"`) {
		t.Fatalf("mismatched -run: exit %d, stderr: %s", code, errOut)
	}
}

// TestDiffTenantSelfIsZero: a per-tenant export (meta tenant=<label>)
// diffed against itself under its own -tenant filter reports nothing —
// the scoped gate's baseline property.
func TestDiffTenantSelfIsZero(t *testing.T) {
	dir := t.TempDir()
	s := writeSummary(t, dir, "tenant.json", "cluster", "mix0-ca_lm", map[string]float64{
		"engine_iterations": 2,
		"mem_dram_used":     1 << 20,
	})
	code, out, errOut := runCLI("diff", "-rel", "0", "-tenant", "mix0-ca_lm", s, s)
	if code != 0 {
		t.Fatalf("tenant self-diff: exit %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if !strings.Contains(out, "no deltas") {
		t.Errorf("tenant self-diff output: %s", out)
	}
}

func TestUsageAndBadInputs(t *testing.T) {
	dir := t.TempDir()
	_, sumPath := runOnce(t, dir, "ok", 1)
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{\"not\":\"a summary\"}"), 0o644); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		args []string
		code int
	}{
		{"no args", nil, 2},
		{"unknown command", []string{"frobnicate"}, 2},
		{"show missing operand", []string{"show"}, 2},
		{"show nonexistent", []string{"show", filepath.Join(dir, "nope.csv")}, 1},
		{"diff one operand", []string{"diff", sumPath}, 2},
		{"diff negative rel", []string{"diff", "-rel", "-1", sumPath, sumPath}, 1},
		{"diff garbage summary", []string{"diff", garbage, sumPath}, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			code, _, _ := runCLI(tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d", code, tc.code)
			}
		})
	}
}

// TestDiffGroupsByPrefix: a summary mixing cluster, router and engine
// series reports its deltas under per-family headers, in fixed
// cluster/router/engine order, each series under its own family — and
// families with no deltas print no header.
func TestDiffGroupsByPrefix(t *testing.T) {
	dir := t.TempDir()
	base := writeSummary(t, dir, "base.json", "grouped", "", map[string]float64{
		"cluster_a_fast_bytes":  100,
		"cluster_dispatches":    7,
		"router_rejected_jobs":  0,
		"router_p0_placed_jobs": 3,
		"engine_iterations":     2,
	})
	cur := writeSummary(t, dir, "cur.json", "grouped", "", map[string]float64{
		"cluster_a_fast_bytes":  150, // moved
		"cluster_dispatches":    7,
		"router_rejected_jobs":  2, // moved
		"router_p0_placed_jobs": 3,
		"engine_iterations":     4, // moved
	})
	code, out, _ := runCLI("diff", "-rel", "0.05", base, cur)
	if code != 1 {
		t.Fatalf("grouped diff: exit %d, want 1\nstdout: %s", code, out)
	}
	ci := strings.Index(out, "cluster_* (")
	ri := strings.Index(out, "router_* (")
	ei := strings.Index(out, "engine (")
	if ci < 0 || ri < 0 || ei < 0 {
		t.Fatalf("missing group headers:\n%s", out)
	}
	if !(ci < ri && ri < ei) {
		t.Fatalf("groups out of order (cluster=%d router=%d engine=%d):\n%s", ci, ri, ei, out)
	}
	// Each moved series sits inside its own group's section.
	section := func(from, to int) string {
		if to < 0 {
			return out[from:]
		}
		return out[from:to]
	}
	if s := section(ci, ri); !strings.Contains(s, "cluster_a_fast_bytes") || strings.Contains(s, "router_") {
		t.Errorf("cluster section wrong:\n%s", s)
	}
	if s := section(ri, ei); !strings.Contains(s, "router_rejected_jobs") || strings.Contains(s, "cluster_") {
		t.Errorf("router section wrong:\n%s", s)
	}
	if s := section(ei, -1); !strings.Contains(s, "engine_iterations") {
		t.Errorf("engine section wrong:\n%s", s)
	}

	// Only the engine series moves: no cluster/router headers at all.
	base2 := writeSummary(t, dir, "base2.json", "grouped", "", map[string]float64{
		"cluster_a_fast_bytes": 100, "engine_iterations": 2,
	})
	cur2 := writeSummary(t, dir, "cur2.json", "grouped", "", map[string]float64{
		"cluster_a_fast_bytes": 100, "engine_iterations": 4,
	})
	code, out, _ = runCLI("diff", "-rel", "0.05", base2, cur2)
	if code != 1 {
		t.Fatalf("engine-only diff: exit %d, want 1\nstdout: %s", code, out)
	}
	if strings.Contains(out, "cluster_* (") || strings.Contains(out, "router_* (") {
		t.Errorf("empty groups printed headers:\n%s", out)
	}
}
