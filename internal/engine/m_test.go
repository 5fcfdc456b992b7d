package engine

import (
	"cachedarrays/internal/models"
	"cachedarrays/internal/policy"
	"testing"
)

func TestMatrixPrint(t *testing.T) {
	for _, m := range []*models.Model{denseLarge, resnetLarge, vggLarge} {
		for _, mode := range policy.Modes {
			r, _ := Run(m, mode.String(), Config{Iterations: 2})
			t.Logf("%-12s %-7s iter=%7.1f util=%.3f nvR=%6.0fGB nvW=%6.0fGB", m.Name, r.Mode, r.IterTime, r.FastBusUtil, float64(r.Slow.ReadBytes)/1e9, float64(r.Slow.WriteBytes)/1e9)
		}
		for _, mode := range []string{"2LM:0", "2LM:M"} {
			r, _ := Run(m, mode, Config{Iterations: 2})
			t.Logf("%-12s %-7s iter=%7.1f util=%.3f nvR=%6.0fGB nvW=%6.0fGB hit=%.2f dirty=%.2f", m.Name, r.Mode, r.IterTime, r.FastBusUtil, float64(r.Slow.ReadBytes)/1e9, float64(r.Slow.WriteBytes)/1e9, r.Cache.HitRate(), r.Cache.DirtyMissRate())
		}
	}
}
