package pool

import (
	"testing"

	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/workload"
)

// TestSingletonEquivalence: with one machine per pool, pooled MWF is flat MWF
// — the paper's stated assumption — down to the last accumulator bit: both
// run one walk and one decode loop, and a singleton pool's mean cost is its
// member's own.
func TestSingletonEquivalence(t *testing.T) {
	cfg := workload.ScenarioConfig(workload.LightlyLoaded)
	cfg.Strings = 12
	for seed := int64(1); seed <= 5; seed++ {
		sys := workload.MustGenerate(cfg, seed)
		flat := heuristics.MWF(sys)
		singletons, err := Uniform(sys.Machines, 1)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := MapSequencePooled(sys, singletons, heuristics.MWFOrder(sys))
		if err != nil {
			t.Fatal(err)
		}
		if pooled.NumMapped != flat.NumMapped {
			t.Fatalf("seed %d: pooled mapped %d, flat %d", seed, pooled.NumMapped, flat.NumMapped)
		}
		if got, want := feasibility.StateDigest(pooled.Alloc), feasibility.StateDigest(flat.Alloc); got != want {
			t.Fatalf("seed %d: pooled digest %s, flat %s", seed, got, want)
		}
	}
}

// TestPoolingCoarsensDecisions: with multi-machine pools the allocator sees
// only aggregate member costs, so on a contended workload the pooled mapping
// generally differs from — and does not beat — the flat mapping.
func TestPoolingCoarsensDecisions(t *testing.T) {
	cfg := workload.ScenarioConfig(workload.HighlyLoaded)
	cfg.Strings = 60
	worse, trials := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		sys := workload.MustGenerate(cfg, seed)
		flat := heuristics.MWF(sys)
		part, err := Uniform(sys.Machines, 4)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := MapSequencePooled(sys, part, heuristics.MWFOrder(sys))
		if err != nil {
			t.Fatal(err)
		}
		trials++
		if pooled.Metric.Worth <= flat.Metric.Worth+1e-9 {
			worse++
		}
	}
	if worse < trials-1 { // allow one lucky tie-breaking inversion
		t.Errorf("pooled beat flat in %d/%d trials; aggregation should not help", trials-worse, trials)
	}
}
