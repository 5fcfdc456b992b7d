package engine

import (
	"fmt"

	"cachedarrays/internal/gcsim"
	"cachedarrays/internal/models"
	"cachedarrays/internal/policy"
)

// Adaptive policy variants: mode names accepted by Run and NewStepper.
// Each stacks adaptive layers on the full CA:LMP switch set — the
// adaptive layers refine the strongest static baseline rather than
// replace it.
const (
	// AdaptiveOG is online guidance alone: interval-based profiling and
	// re-placement steered by the slow tier's bus utilization.
	AdaptiveOG = "CA:OG"
	// AdaptiveTG is the thrash guard alone over the static policy:
	// evict/fetch ping-pong detection with fetch backoff.
	AdaptiveTG = "CA:TG"
	// AdaptiveOGTG is the full stack: thrash guard over online guidance.
	AdaptiveOGTG = "CA:OGTG"
)

// AdaptiveModes lists the adaptive variants in rank order.
var AdaptiveModes = []string{AdaptiveOG, AdaptiveTG, AdaptiveOGTG}

// newAdaptiveStepper builds a run under an adaptive policy stack. Online
// guidance steers by the slow tier's bus utilization, read straight from
// the platform by bwUtil — the same function the mem_<dev>_bw_util
// series publishes — so an adaptive run needs no metrics registry and,
// like a static one, registers series only into cfg.Metrics.
func newAdaptiveStepper(model *models.Model, variant string, cfg Config, env *Env) (*caStepper, error) {
	cfg = cfg.withDefaults()
	p, release := env.acquire(cfg)
	m, err := newManager(p, cfg, env)
	if err != nil {
		return nil, err
	}
	gc := gcsim.New(m, p.Clock)
	pcfg := policy.ConfigFor(policy.CALMP)
	pcfg.PreferCleanVictims = cfg.PreferCleanVictims
	base := policy.NewTieredConfig(m, pcfg, variant, gc)
	now := p.Clock.Now
	slowUtil := bwUtil(p, p.Slow)

	var pol policy.Runtime
	switch variant {
	case AdaptiveOG:
		pol = policy.NewOnlineGuidance(base, policy.GuidanceConfig{}, now, slowUtil)
	case AdaptiveTG:
		pol = policy.NewThrashGuard(base, base, policy.ThrashConfig{}, now)
	case AdaptiveOGTG:
		og := policy.NewOnlineGuidance(base, policy.GuidanceConfig{}, now, slowUtil)
		pol = policy.NewThrashGuard(og, base, policy.ThrashConfig{}, now)
	default:
		return nil, fmt.Errorf("engine: unknown adaptive variant %q", variant)
	}
	return newCAStepper(model, pol, gc, p, m, cfg, release, env)
}
