package metrics

import (
	"bytes"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry claims to be enabled")
	}
	// Every entry point must be a no-op, not a panic.
	r.Tick(1, 0.5)
	r.Flush(2)
	r.SetMeta("model", "x")
	r.CounterFunc("a", func() float64 { return 1 })
	r.Gauge("b", func() float64 { return 2 })
	c := r.Counter("c")
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil counter holds value %g", c.Value())
	}
	h := r.Histogram("d")
	h.Observe(4)
	if r.Samples() != 0 || r.Interval() != 0 {
		t.Fatal("nil registry reports samples")
	}
	if s := r.Summarize(); s != nil {
		t.Fatal("nil registry produced a summary")
	}
}

func TestSamplingCadence(t *testing.T) {
	r := New(1.0)
	v := 0.0
	r.Gauge("g", func() float64 { return v })

	// Advances below the boundary take no sample.
	now := 0.0
	for _, dt := range []float64{0.3, 0.3, 0.3} {
		now += dt
		v += 1
		r.Tick(now, dt)
	}
	if r.Samples() != 0 {
		t.Fatalf("sampled %d times before the first boundary", r.Samples())
	}
	// Crossing 1.0 samples once, even when the step overshoots.
	now += 0.5 // 1.4
	v = 10
	r.Tick(now, 0.5)
	if r.Samples() != 1 {
		t.Fatalf("samples = %d after first crossing, want 1", r.Samples())
	}
	// A huge step crossing several boundaries still samples once and
	// re-arms past the current time.
	now += 3.0 // 4.4
	v = 20
	r.Tick(now, 3.0)
	if r.Samples() != 2 {
		t.Fatalf("samples = %d after multi-interval step, want 2", r.Samples())
	}
	// The next boundary is 5.0, not a backlog of missed ones.
	now += 0.1
	r.Tick(now, 0.1)
	if r.Samples() != 2 {
		t.Fatalf("backlogged boundary fired at t=%g", now)
	}

	s := r.Summarize()
	g := s.Series["g"]
	if g.Last != 20 || g.Min != 10 || g.Max != 20 || g.Samples != 2 {
		t.Fatalf("gauge summary = %+v", g)
	}
	if s.Start != 1.4 || s.End != 4.4 {
		t.Fatalf("summary window [%g, %g], want [1.4, 4.4]", s.Start, s.End)
	}
}

func TestFlushDeduplicatesFinalSample(t *testing.T) {
	r := New(1.0)
	r.Gauge("g", func() float64 { return 1 })
	r.Tick(1.5, 1.5)
	if r.Samples() != 1 {
		t.Fatalf("samples = %d", r.Samples())
	}
	r.Flush(1.5) // same timestamp: no duplicate point
	if r.Samples() != 1 {
		t.Fatalf("Flush duplicated the sample at the same time: %d", r.Samples())
	}
	r.Flush(1.7)
	if r.Samples() != 2 {
		t.Fatalf("Flush did not take the final sample: %d", r.Samples())
	}
	// Flush re-arms the boundary, so a later registry reuse would not
	// double-sample; and a second flush at the same time stays deduped.
	r.Flush(1.7)
	if r.Samples() != 2 {
		t.Fatalf("double Flush duplicated: %d", r.Samples())
	}
}

func TestLateRegistrationBackfills(t *testing.T) {
	r := New(1.0)
	r.Gauge("early", func() float64 { return 5 })
	r.Tick(1, 1)
	r.Gauge("late", func() float64 { return 7 })
	r.Tick(2, 1)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	ts, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.Cols["late"]; len(got) != 2 || got[0] != 0 || got[1] != 7 {
		t.Fatalf("late column = %v, want [0 7]", got)
	}
	if got := ts.Cols["early"]; len(got) != 2 || got[0] != 5 || got[1] != 5 {
		t.Fatalf("early column = %v", got)
	}
}

func TestDuplicateSeriesPanics(t *testing.T) {
	r := New(1)
	r.Gauge("x", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.CounterFunc("x", func() float64 { return 0 })
}

func TestCSVRoundTrip(t *testing.T) {
	r := New(0.5)
	c := r.Counter("copies")
	r.Gauge("used_bytes", func() float64 { return 1e12 + 0.25 })
	c.Add(3.5)
	r.Tick(0.5, 0.5)
	c.Add(1)
	r.Tick(1.0, 0.5)

	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	ts, err := ReadCSV(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Times) != 2 || ts.Times[0] != 0.5 || ts.Times[1] != 1.0 {
		t.Fatalf("times = %v", ts.Times)
	}
	if got := ts.Cols["copies"]; got[0] != 3.5 || got[1] != 4.5 {
		t.Fatalf("copies = %v", got)
	}
	if got := ts.Cols["used_bytes"]; got[0] != 1e12+0.25 {
		t.Fatalf("used_bytes lost precision: %v", got)
	}
	// Header columns are sorted by name, deterministically.
	if ts.Names[0] != "copies" || ts.Names[1] != "used_bytes" {
		t.Fatalf("column order = %v", ts.Names)
	}

	var buf2 bytes.Buffer
	if err := r.WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Fatal("re-export is not byte-identical")
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"a,b\n1,2\n",            // no t column
		"t,x\n1\n",              // short row
		"t,x\n1,notanumber\n",   // bad value
		"t,x\nnotanumber,1.0\n", // bad time
	} {
		if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadCSV accepted %q", bad)
		}
	}
}

func TestSummaryRoundTripAndSelfDiff(t *testing.T) {
	r := New(0.25)
	r.SetMeta("model", "resnet50")
	c := r.Counter("dm_copies")
	h := r.Histogram("kernel_seconds")
	for i := 1; i <= 8; i++ {
		c.Inc()
		h.Observe(float64(i) * 1e-3)
		r.Tick(float64(i)*0.25, 0.25)
	}
	r.Flush(2.1)

	var buf bytes.Buffer
	if err := WriteSummary(&buf, r.Summarize()); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	s, err := ReadSummary(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if s.Meta["model"] != "resnet50" || s.Interval != 0.25 {
		t.Fatalf("summary meta lost: %+v", s)
	}
	if got := s.Series["dm_copies"]; got.Last != 8 || got.Kind != KindCounter {
		t.Fatalf("dm_copies summary = %+v", got)
	}
	hs, ok := s.Histograms["kernel_seconds"]
	if !ok || hs.Count != 8 || hs.Min != 1e-3 || hs.Max != 8e-3 {
		t.Fatalf("histogram summary = %+v", hs)
	}
	// The _count/_sum companion columns ride in the time series.
	if got := s.Series["kernel_seconds_count"]; got.Last != 8 {
		t.Fatalf("kernel_seconds_count = %+v", got)
	}

	// Self-diff must be empty at any threshold, including zero.
	s2, err := ReadSummary(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(s, s2, 0); len(d) != 0 {
		t.Fatalf("self-diff produced deltas: %v", d)
	}

	// Byte-identical re-export (the committed-baseline property).
	var buf2 bytes.Buffer
	if err := WriteSummary(&buf2, r.Summarize()); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Fatal("summary re-export is not byte-identical")
	}
}

func TestDiffFlagsRegressions(t *testing.T) {
	mk := func(last float64, extra bool) *Summary {
		s := &Summary{Series: map[string]SeriesSummary{
			"iter_seconds": {Kind: KindGauge, Samples: 10, Min: 1, Max: last, Mean: last / 2, Last: last},
			"stable":       {Kind: KindCounter, Samples: 10, Last: 100, Max: 100, Mean: 50},
		}}
		if extra {
			s.Series["only_new"] = SeriesSummary{Last: 1}
		}
		return s
	}
	old, cur := mk(1.0, false), mk(1.10, true)
	d := Diff(old, cur, 0.05)
	if len(d) == 0 {
		t.Fatal("10% regression under a 5% threshold produced no deltas")
	}
	// Missing/added series rank first (infinite delta).
	if d[0].Series != "only_new" || d[0].Stat != "added" || !math.IsInf(d[0].Rel, 1) {
		t.Fatalf("first delta = %+v, want the added series", d[0])
	}
	found := false
	for _, x := range d {
		if x.Series == "stable" {
			t.Fatalf("unchanged series reported: %+v", x)
		}
		if x.Series == "iter_seconds" && x.Stat == "last" {
			found = true
			if x.Rel < 0.09 || x.Rel > 0.1 {
				t.Fatalf("rel delta = %g", x.Rel)
			}
		}
	}
	if !found {
		t.Fatalf("iter_seconds last-delta missing from %v", d)
	}
	// The same pair under a looser threshold keeps only the missing series.
	d = Diff(old, cur, 0.5)
	if len(d) != 1 || d[0].Stat != "added" {
		t.Fatalf("loose-threshold diff = %v", d)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h *Histogram
	h.Observe(1) // nil-safe
	r := New(1)
	h = r.Histogram("lat")
	h.Observe(0)    // non-positive bucket
	h.Observe(0.75) // 2^-1 bucket
	h.Observe(3)    // 2^1 bucket
	h.Observe(3.5)  // 2^1 bucket
	s := h.snapshot()
	if s.Count != 4 || s.Buckets["0"] != 1 || s.Buckets["0.5"] != 1 || s.Buckets["2"] != 2 {
		t.Fatalf("histogram snapshot = %+v", s)
	}
}

// TestHistogramSamplingAllocFree: once the sample buffers exist, a
// sample of a registry whose histogram holds observations allocates
// nothing — the _count/_sum columns read the running totals, not a
// snapshot with its bucket map.
func TestHistogramSamplingAllocFree(t *testing.T) {
	r := New(1)
	h := r.Histogram("lat")
	for _, v := range []float64{0, 0.75, 3, 3.5} {
		h.Observe(v)
	}
	now := 1.0
	r.Tick(now, 1) // the first sample allocates the buffers
	allocs := testing.AllocsPerRun(100, func() {
		now++
		r.Tick(now, 1)
	})
	if allocs != 0 {
		t.Fatalf("sampling allocates %.1f per sample, want 0", allocs)
	}
	if r.Samples() != 102 {
		t.Fatalf("samples = %d, want 102", r.Samples())
	}
	s := r.Summarize()
	if got := s.Series["lat_count"].Last; got != 4 {
		t.Errorf("lat_count = %g, want 4", got)
	}
	if got := s.Series["lat_sum"].Last; got != 7.25 {
		t.Errorf("lat_sum = %g, want 7.25", got)
	}
}

// TestHubServesTenantLabels: a registry registered with an explicit label
// string is served with those labels verbatim, while plainly registered
// registries keep the default run label — the cluster's per-tenant export.
func TestHubServesTenantLabels(t *testing.T) {
	h := NewHub()
	cluster := New(0)
	cluster.Gauge("cluster_active_tenants", func() float64 { return 2 })
	cluster.Flush(0)
	h.Register("cluster", cluster)

	tenant := New(0)
	tenant.Gauge("engine_iterations", func() float64 { return 3 })
	tenant.Flush(0)
	h.RegisterLabeled("cluster/mix0-ca_lm", `run="cluster",tenant="mix0-ca_lm"`, tenant)

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, req)
	body := rec.Body.String()

	if !strings.Contains(body, `ca_engine_iterations{run="cluster",tenant="mix0-ca_lm"} 3`) {
		t.Errorf("tenant series lost its explicit labels:\n%s", body)
	}
	if !strings.Contains(body, `ca_cluster_active_tenants{run="cluster"} 2`) {
		t.Errorf("cluster series lost the default run label:\n%s", body)
	}
	if strings.Contains(body, `tenant="mix0-ca_lm",tenant=`) {
		t.Errorf("labels doubled:\n%s", body)
	}
}
