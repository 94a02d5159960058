package heuristics

import (
	"math/rand"
	"testing"

	"repro/internal/genitor"
	"repro/internal/model"
)

func TestDecodeAssignmentFeasibleStaysIntact(t *testing.T) {
	sys := easySystem()
	genes := make([]int, sys.NumApps())
	for g := range genes {
		genes[g] = g % sys.Machines
	}
	r := DecodeAssignment(sys, genes)
	if r.NumMapped != len(sys.Strings) {
		t.Fatalf("repair removed strings from a feasible assignment: %d mapped", r.NumMapped)
	}
	if !r.Alloc.TwoStageFeasible() {
		t.Fatal("decoded mapping infeasible")
	}
	if r.Metric.Worth != 121 {
		t.Errorf("worth %v, want 121", r.Metric.Worth)
	}
}

func TestDecodeAssignmentRepairsOverload(t *testing.T) {
	sys := model.NewUniformSystem(2, 10)
	// Three heavy strings: any two fit (0.45 each), three overload machine 0.
	for k := 0; k < 3; k++ {
		sys.AddString(model.AppString{Worth: []float64{1, 10, 100}[k], Period: 10, MaxLatency: 100,
			Apps: []model.Application{model.UniformApp(2, 5, 0.9, 10)}})
	}
	genes := []int{0, 0, 0} // all on machine 0: utilization 1.35
	r := DecodeAssignment(sys, genes)
	if !r.Alloc.TwoStageFeasible() {
		t.Fatal("repair left an infeasible mapping")
	}
	// The least-worth string must be the sacrifice.
	if r.Alloc.Complete(0) || !r.Alloc.Complete(1) || !r.Alloc.Complete(2) {
		t.Error("repair victims wrong: want only string 0 dropped")
	}
	if r.Metric.Worth != 110 {
		t.Errorf("worth %v, want 110", r.Metric.Worth)
	}
}

func TestDecodeAssignmentRepairsQoS(t *testing.T) {
	sys := model.NewUniformSystem(2, 10)
	// A string that is infeasible even alone (comp > P) must always be
	// repaired away.
	sys.AddString(model.AppString{Worth: 100, Period: 1, MaxLatency: 100,
		Apps: []model.Application{model.UniformApp(2, 9, 0.9, 10)}})
	sys.AddString(model.AppString{Worth: 10, Period: 50, MaxLatency: 100,
		Apps: []model.Application{model.UniformApp(2, 2, 0.4, 10)}})
	r := DecodeAssignment(sys, []int{0, 1})
	if r.Alloc.Complete(0) || !r.Alloc.Complete(1) {
		t.Error("want only string 1 mapped")
	}
}

// TestSSGFindsFeasibleSolutionsOnEasySystems: with repair, SSG solves easy
// instances.
func TestSSGOnEasySystem(t *testing.T) {
	cfg := genitor.DefaultConfig()
	cfg.PopulationSize = 20
	cfg.MaxIterations = 60
	cfg.StallLimit = 40
	cfg.Seed = 5
	r := Run("SSG", easySystem(), PSGConfig{Config: cfg})
	if r.Name != "SSG" {
		t.Errorf("name %q", r.Name)
	}
	if r.Metric.Worth != 121 {
		t.Errorf("worth %v, want 121", r.Metric.Worth)
	}
	if !r.Alloc.TwoStageFeasible() {
		t.Error("SSG result infeasible")
	}
	if r.Evaluations == 0 || r.StopReason == "" {
		t.Errorf("stats missing: %+v", r)
	}
}

// TestSSGTrailsPermutationSearch reproduces the paper's Section 5
// observation (experiment E10): at an equal evaluation budget on a loaded
// system, the solution-space GA recovers clearly less worth than Seeded PSG.
func TestSSGTrailsPermutationSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	wins, total := 0, 0
	for trial := 0; trial < 3; trial++ {
		sys := randomTestSystem(rng, 4, 20)
		pcfg := testPSGConfig(int64(trial))
		pcfg.MaxIterations = 120
		sp := Run("SeededPSG", sys, pcfg)
		scfg := genitor.DefaultConfig()
		scfg.PopulationSize = pcfg.PopulationSize
		scfg.MaxIterations = pcfg.MaxIterations
		scfg.StallLimit = pcfg.StallLimit
		scfg.Seed = int64(trial)
		sg := Run("SSG", sys, PSGConfig{Config: scfg})
		if !sg.Alloc.TwoStageFeasible() {
			t.Fatalf("trial %d: SSG result infeasible", trial)
		}
		total++
		if sp.Metric.Worth >= sg.Metric.Worth {
			wins++
		}
	}
	if wins < total {
		t.Errorf("SeededPSG beat SSG in only %d/%d trials; the paper's observation should dominate", wins, total)
	}
}

func TestMapSequenceSkipContinuesPastFailure(t *testing.T) {
	sys := model.NewUniformSystem(2, 10)
	ok := model.AppString{Worth: 10, Period: 50, MaxLatency: 500,
		Apps: []model.Application{model.UniformApp(2, 2, 0.4, 20)}}
	bad := model.AppString{Worth: 10, Period: 1, MaxLatency: 500,
		Apps: []model.Application{model.UniformApp(2, 8, 0.9, 20)}}
	sys.AddString(ok)
	sys.AddString(bad)
	sys.AddString(ok)
	r := MapSequenceSkip(sys, []int{0, 1, 2})
	if !r.Alloc.Complete(0) || r.Alloc.Complete(1) || !r.Alloc.Complete(2) {
		t.Fatal("want strings 0 and 2 mapped, string 1 skipped")
	}
	if r.NumMapped != 2 || r.Metric.Worth != 20 {
		t.Errorf("NumMapped %d worth %v, want 2 / 20", r.NumMapped, r.Metric.Worth)
	}
	if !r.Alloc.TwoStageFeasible() {
		t.Error("skip mapping infeasible")
	}
}

// TestSkipDominatesStop: skip-on-failure can never map fewer strings of the
// same order's feasible prefix, so its worth is >= the stop semantics' worth.
func TestSkipDominatesStop(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 20; trial++ {
		sys := randomTestSystem(rng, 3, 12)
		order := MWFOrder(sys)
		stop := MapSequence(sys, order)
		skip := MapSequenceSkip(sys, order)
		if skip.Metric.Worth < stop.Metric.Worth-1e-9 {
			t.Fatalf("trial %d: skip worth %v below stop worth %v", trial, skip.Metric.Worth, stop.Metric.Worth)
		}
	}
}
