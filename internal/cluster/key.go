package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"cachedarrays/internal/engine"
	"cachedarrays/internal/sched"
)

// Key computes the content-addressed cache key of one cluster run: a
// SHA-256 over the canonical platform config plus, per job in submission
// order, the job's name, canonical mode, arrival offset, canonical
// per-job config (the Iterations override folded in) and the model's
// deterministic JSON serialization — everything that shapes a byte of
// the Result, and nothing that does not. Two deliberate departures from
// the solo-cell key (sched.Key):
//
//   - Job names are keyed. A solo run's name is a label outside the
//     result, but tenant names live inside the cluster Result (Name,
//     Label, metric-series identities), so two runs differing only in a
//     job name are different results.
//   - The baselines knob is keyed as a bool. Attaching a baseline
//     scheduler fills the fairness fields (SoloTime, Slowdown,
//     InducedEvictions); which scheduler computes them never changes a
//     byte (the determinism tests prove serial == parallel), so only
//     the presence is hashed.
//
// The format header keeps the cluster key space disjoint from the solo
// key space inside the one shared cache and flight group, and carries
// engine.SimVersion so a simulator semantics change retires old entries.
func Key(cfg Config) (string, error) {
	tenants, ecfg, err := prepare(cfg)
	if err != nil {
		return "", err
	}
	return runKey(cfg, tenants, ecfg)
}

// runKey is Key over an already-prepared tenant list (Run reuses the
// prepare it has to do anyway).
func runKey(cfg Config, tenants []*tenant, ecfg engine.Config) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "cachedarrays-cluster v1\nsim=%d\nbaselines=%t\njobs=%d\n",
		engine.SimVersion, cfg.Baselines != nil, len(tenants))
	if err := sched.HashConfig(h, "platform", ecfg); err != nil {
		return "", err
	}
	for _, t := range tenants {
		pre := fmt.Sprintf("job%d", t.idx)
		fmt.Fprintf(h, "%s.name=%s\n%s.mode=%s\n%s.arrival=%g\n",
			pre, t.name, pre, t.mode, pre, t.job.Arrival)
		if err := sched.HashConfig(h, pre+".cfg", t.cfg); err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s.model=", pre)
		if err := t.model.SaveJSON(h); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cacheable reports whether this cluster run may be memoized: a
// scheduler must be attached and the run must carry no instrumentation.
// The engine-side knobs (tracing, faults, audits, a cluster-level
// metrics registry) reuse sched.Cacheable; TenantMetrics is the
// cluster-only instrumentation channel and bypasses the same way —
// per-run registries are artifacts a memoized result cannot reproduce.
func cacheable(cfg Config, ecfg engine.Config) bool {
	return cfg.Sched != nil && sched.Cacheable(ecfg) && cfg.TenantMetrics == nil
}

// cacheKey returns the run's memoization key, or "" when the run must
// execute uncached — no scheduler, instrumentation attached, or a config
// the hasher cannot canonicalize (surfaced once via the scheduler's
// key-error warning, mirroring solo cells).
func cacheKey(cfg Config, tenants []*tenant, ecfg engine.Config) string {
	if !cacheable(cfg, ecfg) {
		return ""
	}
	key, err := runKey(cfg, tenants, ecfg)
	if err != nil {
		sched.WarnKeyError(err)
		return ""
	}
	return key
}

// decodeResult rebuilds a cluster result from a verified cache entry.
func decodeResult(body []byte) (any, error) {
	var r Result
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return &r, nil
}
