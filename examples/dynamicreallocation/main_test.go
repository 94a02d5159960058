package main

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/workload"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestRebalanceImprovesSlackness: a deliberately lopsided feasible mapping
// must gain slackness from rebalancing.
func TestRebalanceImprovesSlackness(t *testing.T) {
	sys := model.NewUniformSystem(2, 10)
	for k := 0; k < 4; k++ {
		sys.AddString(model.AppString{Worth: 10, Period: 20, MaxLatency: 200,
			Apps: []model.Application{model.UniformApp(2, 4, 0.5, 1)}})
	}
	a := feasibility.New(sys)
	for k := 0; k < 4; k++ {
		a.Assign(k, 0, 0) // all on machine 0: U = 0.4 vs 0
	}
	if !a.TwoStageFeasible() {
		t.Fatal("premise: lopsided mapping should still be feasible")
	}
	before := a.Slackness()
	moves, after := Rebalance(a, 10)
	if moves == 0 || after <= before {
		t.Errorf("rebalance made %d moves, slackness %v -> %v", moves, before, after)
	}
	if !a.TwoStageFeasible() {
		t.Error("rebalance broke feasibility")
	}
	// Balanced: two strings per machine -> slackness 0.8.
	if !approx(after, 0.8, 1e-9) {
		t.Errorf("slackness %v, want 0.8", after)
	}
}

// TestRebalanceRespectsMoveBudget and terminates at local optima.
func TestRebalanceStopsAtOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := workload.ScenarioConfig(workload.LightlyLoaded)
	cfg.Strings = 10
	sys := workload.MustGenerate(cfg, rng.Int63())
	r := heuristics.MWF(sys)
	moves1, s1 := Rebalance(r.Alloc, 100)
	moves2, s2 := Rebalance(r.Alloc, 100)
	if moves2 != 0 || s2 != s1 {
		t.Errorf("second rebalance moved %d (slackness %v -> %v): not at a fixed point", moves2, s1, s2)
	}
	if moves1 > 100 {
		t.Errorf("move budget exceeded: %d", moves1)
	}
}
