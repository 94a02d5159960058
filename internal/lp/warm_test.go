package lp

import (
	"math/rand"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/simplex"
)

// TestWarmBoundRescaledSystem: re-solving the upper bound after a demand
// rescale, warm-started from the base solve's basis, must reproduce the cold
// re-solve's objective. The scaled system has the identical LP shape (same
// machines, strings, and application counts), which is exactly the warm-start
// contract; the warm path must also engage on a healthy fraction of trials to
// keep the equivalence check meaningful.
func TestWarmBoundRescaledSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	warmUsed := 0
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		sys := randomSmallSystem(rng, 2+rng.Intn(3), 3+rng.Intn(4), 3)
		cfg := Config{Formulation: Relaxed, Objective: MaximizeWorth}
		base, err := UpperBound(sys, cfg)
		if err != nil {
			t.Fatalf("trial %d base: %v", trial, err)
		}
		if base.Status != simplex.Optimal || base.Basis == nil {
			t.Fatalf("trial %d: base status %v basis %v", trial, base.Status, base.Basis)
		}

		gammas := make([]float64, len(sys.Strings))
		for k := range gammas {
			gammas[k] = 0.9 + 0.3*rng.Float64()
		}
		scaled, err := dynamic.ScaleStrings(sys, gammas)
		if err != nil {
			t.Fatalf("trial %d scale: %v", trial, err)
		}

		cold, err := UpperBound(scaled, cfg)
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		warmCfg := cfg
		warmCfg.WarmBasis = base.Basis
		warm, err := UpperBound(scaled, warmCfg)
		if err != nil {
			t.Fatalf("trial %d warm: %v", trial, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm status %v, cold %v", trial, warm.Status, cold.Status)
		}
		if !approx(warm.Objective, cold.Objective, 1e-6*(1+cold.Objective)) {
			t.Errorf("trial %d: warm objective %v, cold %v", trial, warm.Objective, cold.Objective)
		}
		if warm.WarmStarted {
			warmUsed++
			if warm.Iterations > cold.Iterations {
				t.Logf("trial %d: warm start pivoted %d times vs cold %d", trial, warm.Iterations, cold.Iterations)
			}
		}
	}
	if warmUsed == 0 {
		t.Errorf("warm path engaged on 0/%d rescaled systems", trials)
	}
}

// TestWarmBoundBadBasisFallsBack: a nonsense warm basis silently falls back
// to the cold solve and reports WarmStarted false.
func TestWarmBoundBadBasisFallsBack(t *testing.T) {
	sys := randomSmallSystem(rand.New(rand.NewSource(92)), 3, 4, 3)
	cfg := Config{Formulation: Relaxed, Objective: MaximizeWorth}
	cold, err := UpperBound(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WarmBasis = []int{0, 0, 0}
	b, err := UpperBound(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.WarmStarted || b.WarmRefusal != simplex.WarmShape {
		t.Errorf("nonsense basis: warm-started %v, refusal %v", b.WarmStarted, b.WarmRefusal)
	}
	if b.Status != simplex.Optimal || !approx(b.Objective, cold.Objective, 1e-9*(1+cold.Objective)) {
		t.Errorf("fallback: status %v objective %v, want optimal %v", b.Status, b.Objective, cold.Objective)
	}
}
