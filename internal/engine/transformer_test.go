package engine

import (
	"testing"

	"cachedarrays/internal/models"
)

// TestTransformerGeneralizes runs the §VI generality claim: the same
// hints, policy and mechanism that tier CNN activations tier Transformer
// attention activations, with the same mode ordering.
func TestTransformerGeneralizes(t *testing.T) {
	cfg := models.DefaultTransformerConfig()
	cfg.BatchSize = 96 // footprint well above the 180 GB DRAM budget
	m := models.Transformer(cfg)

	run := Config{Iterations: 2, CheckInvariants: true}
	lm0, err := Run(m, "2LM:0", run)
	if err != nil {
		t.Fatal(err)
	}
	caLM, err := Run(m, "CA:LM", run)
	if err != nil {
		t.Fatal(err)
	}
	caL, err := Run(m, "CA:L", run)
	if err != nil {
		t.Fatal(err)
	}
	if caLM.IterTime >= caL.IterTime {
		t.Errorf("transformer: CA:LM (%.1fs) not faster than CA:L (%.1fs)",
			caLM.IterTime, caL.IterTime)
	}
	speedup := lm0.IterTime / caLM.IterTime
	if speedup < 1.3 || speedup > 3 {
		t.Errorf("transformer: CA:LM speedup %.2fx outside the CNN-like band", speedup)
	}
	// Eager retire must slash NVRAM writes here too.
	if caLM.Slow.WriteBytes*2 > caL.Slow.WriteBytes {
		t.Errorf("transformer: eager retire did not reduce NVRAM writes (%d vs %d)",
			caLM.Slow.WriteBytes, caL.Slow.WriteBytes)
	}
}
