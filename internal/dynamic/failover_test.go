package dynamic

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/workload"
)

// survivalFixture builds a 3-machine system with three single-app strings
// mapped one per machine.
func survivalFixture(worths []float64, util float64) (*model.System, *feasibility.Allocation) {
	sys := model.NewUniformSystem(3, 5)
	for _, w := range worths {
		sys.AddString(model.AppString{Worth: w, Period: 10, MaxLatency: 100,
			Apps: []model.Application{model.UniformApp(3, 4, util, 1)}})
	}
	a := feasibility.New(sys)
	for k := range worths {
		a.Assign(k, 0, k%3)
	}
	return sys, a
}

// TestSurviveMigratesOffFailedMachine: one machine dies, its string moves to
// a surviving machine, nothing is evicted.
func TestSurviveMigratesOffFailedMachine(t *testing.T) {
	_, a := survivalFixture([]float64{10, 10, 10}, 0.5)
	down := faults.NewSet(3)
	down.Fail(faults.Machine(1))
	res, err := Survive(a, down)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || !a.TwoStageFeasible() {
		t.Fatal("survive did not restore feasibility")
	}
	if len(res.Evacuated) != 1 || res.Evacuated[0] != 1 {
		t.Errorf("evacuated %v, want [1]", res.Evacuated)
	}
	if a.NumComplete() != 3 {
		t.Errorf("%d strings mapped, want all 3 retained", a.NumComplete())
	}
	if res.Retained != 1 {
		t.Errorf("retained %v, want 1", res.Retained)
	}
	if a.Machine(1, 0) == 1 {
		t.Error("string 1 still on the failed machine")
	}
	if UsesFailed(a, down) {
		t.Error("post-repair allocation uses a failed resource")
	}
	mig, evi, _ := res.Counts()
	if mig != 1 || evi != 0 {
		t.Errorf("%d migrations, %d evictions, want 1/0", mig, evi)
	}
	if res.CostSeconds != 4 {
		t.Errorf("recovery cost %v s, want 4 (one nominal execution)", res.CostSeconds)
	}
}

// TestSurviveEvictsWhenNoRoom: two machines die and the survivor cannot hold
// all three strings; the lowest-worth strings go.
func TestSurviveEvictsWhenNoRoom(t *testing.T) {
	// Each string demands 4·0.9/10 = 0.36 of a machine; one machine holds at
	// most two of the three.
	sys, a := survivalFixture([]float64{1, 100, 10}, 0.9)
	down := faults.NewSet(3)
	down.Fail(faults.Machine(0))
	down.Fail(faults.Machine(2))
	res, err := Survive(a, down)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || !a.TwoStageFeasible() {
		t.Fatal("survive did not restore feasibility")
	}
	if UsesFailed(a, down) {
		t.Error("post-repair allocation uses a failed resource")
	}
	if a.Complete(0) || !a.Complete(1) || !a.Complete(2) {
		t.Errorf("want only the worth-1 string evicted (actions %+v)", res.Actions)
	}
	if want := 110.0 / 111.0; !approx(res.Retained, want, 1e-12) {
		t.Errorf("retained %v, want %v", res.Retained, want)
	}
	_ = sys
}

// TestSurviveCompartmentHitWithRoutes: a compartment hit takes a machine and
// all its incident routes; a two-app string straddling a surviving machine
// and the hit machine must be fully re-placed, and no transfer may cross a
// failed route.
func TestSurviveCompartmentHitWithRoutes(t *testing.T) {
	sys := model.NewUniformSystem(3, 5)
	sys.AddString(model.AppString{Worth: 100, Period: 10, MaxLatency: 100,
		Apps: []model.Application{model.UniformApp(3, 2, 0.5, 10), model.UniformApp(3, 2, 0.5, 10)}})
	a := feasibility.New(sys)
	a.AssignString(0, []int{0, 1})
	down := faults.NewSet(3)
	for _, e := range faults.CompartmentHit(3, 1, 0, 0) {
		down.Fail(e.Resource)
	}
	res, err := Survive(a, down)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || !a.Complete(0) {
		t.Fatalf("string lost: %+v", res)
	}
	if a.Machine(0, 0) == 1 || a.Machine(0, 1) == 1 {
		t.Error("application still on the hit machine")
	}
	if UsesFailed(a, down) {
		t.Error("transfer crosses a failed route")
	}
}

// TestSurviveFailedRouteOnly: only the route between the two halves of a
// string fails; the string must be re-placed so its transfer avoids it.
func TestSurviveFailedRouteOnly(t *testing.T) {
	sys := model.NewUniformSystem(3, 5)
	sys.AddString(model.AppString{Worth: 100, Period: 10, MaxLatency: 100,
		Apps: []model.Application{model.UniformApp(3, 2, 0.5, 10), model.UniformApp(3, 2, 0.5, 10)}})
	a := feasibility.New(sys)
	a.AssignString(0, []int{0, 1})
	down := faults.NewSet(3)
	down.Fail(faults.Route(0, 1))
	res, err := Survive(a, down)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || !a.Complete(0) {
		t.Fatalf("string lost to a single route failure: %+v", res)
	}
	j1, j2 := a.Machine(0, 0), a.Machine(0, 1)
	if j1 == 0 && j2 == 1 {
		t.Error("transfer still crosses the failed route")
	}
	if len(res.Evacuated) != 1 {
		t.Errorf("evacuated %v, want exactly the straddling string", res.Evacuated)
	}
}

// TestSurviveAllMachinesDown: total loss evicts everything and stays
// feasible (the empty mapping).
func TestSurviveAllMachinesDown(t *testing.T) {
	_, a := survivalFixture([]float64{10, 100, 1}, 0.5)
	down := faults.NewSet(3)
	for j := 0; j < 3; j++ {
		down.Fail(faults.Machine(j))
	}
	res, err := Survive(a, down)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Error("empty mapping should be feasible")
	}
	if a.NumComplete() != 0 {
		t.Errorf("%d strings still mapped, want all evicted", a.NumComplete())
	}
	if res.WorthAfter != 0 || res.Retained != 0 {
		t.Errorf("worth after %v retained %v, want 0/0", res.WorthAfter, res.Retained)
	}
}

// TestSurvivePreemptsLowerWorthSurvivor: an evacuated high-worth string may
// displace a low-worth survivor (migrate-then-evict, lowest worth first).
func TestSurvivePreemptsLowerWorthSurvivor(t *testing.T) {
	// Two machines; each string fills most of one machine (util 4·0.9/5 =
	// 0.72 per machine per string). Machine 1 dies: the worth-100 string must
	// take machine 0 and push the worth-1 string out.
	sys := model.NewUniformSystem(2, 5)
	sys.AddString(model.AppString{Worth: 1, Period: 5, MaxLatency: 100,
		Apps: []model.Application{model.UniformApp(2, 4, 0.9, 1)}})
	sys.AddString(model.AppString{Worth: 100, Period: 5, MaxLatency: 100,
		Apps: []model.Application{model.UniformApp(2, 4, 0.9, 1)}})
	a := feasibility.New(sys)
	a.Assign(0, 0, 0)
	a.Assign(1, 0, 1)
	down := faults.NewSet(2)
	down.Fail(faults.Machine(1))
	res, err := Survive(a, down)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || !a.TwoStageFeasible() {
		t.Fatal("survive did not restore feasibility")
	}
	if a.Complete(0) || !a.Complete(1) {
		t.Errorf("want the worth-100 string to displace the worth-1 string (actions %+v)", res.Actions)
	}
	if res.WorthAfter != 100 {
		t.Errorf("worth after %v, want 100", res.WorthAfter)
	}
}

// TestSurviveMismatchedSet: an outage set sized for a different suite is
// rejected.
func TestSurviveMismatchedSet(t *testing.T) {
	_, a := survivalFixture([]float64{10}, 0.5)
	if _, err := Survive(a, faults.NewSet(5)); err == nil {
		t.Error("mismatched outage set accepted")
	}
}

// TestSurviveGeneratedWorkloads: on generated scenario-3 systems, killing
// machines one after another always yields a feasible allocation that avoids
// every failed resource, with worth monotonically non-increasing.
func TestSurviveGeneratedWorkloads(t *testing.T) {
	cfg := workload.ScenarioConfig(workload.LightlyLoaded)
	cfg.Strings = 12
	for seed := int64(1); seed <= 4; seed++ {
		sys := workload.MustGenerate(cfg, seed)
		r := heuristics.MWF(sys)
		alloc := r.Alloc
		down := faults.NewSet(sys.Machines)
		prevWorth := alloc.Metric().Worth
		for _, j := range []int{0, 3, 7} {
			for _, e := range faults.CompartmentHit(sys.Machines, j, 0, 0) {
				down.Fail(e.Resource)
			}
			res, err := Survive(alloc, down)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Feasible || !alloc.TwoStageFeasible() {
				t.Fatalf("seed %d: infeasible after killing machine %d", seed, j)
			}
			if UsesFailed(alloc, down) {
				t.Fatalf("seed %d: allocation uses failed resources after killing machine %d", seed, j)
			}
			if res.WorthAfter > prevWorth+1e-9 {
				t.Fatalf("seed %d: worth grew during failover: %v -> %v", seed, prevWorth, res.WorthAfter)
			}
			if res.Retained < 0 || res.Retained > 1+1e-12 {
				t.Fatalf("seed %d: retained %v outside [0,1]", seed, res.Retained)
			}
			if got := alloc.Metric().Worth; got != res.WorthAfter {
				t.Fatalf("seed %d: WorthAfter %v, allocation holds %v", seed, res.WorthAfter, got)
			}
			prevWorth = res.WorthAfter
		}
	}
}

// TestMaskedIMRRespectsMask: the fault-masked IMR never places an
// application on a disallowed machine or a transfer on a disallowed route.
func TestMaskedIMRRespectsMask(t *testing.T) {
	cfg := workload.ScenarioConfig(workload.LightlyLoaded)
	cfg.Strings = 8
	sys := workload.MustGenerate(cfg, 9)
	down := faults.NewSet(sys.Machines)
	for _, e := range faults.CompartmentHit(sys.Machines, 2, 0, 0) {
		down.Fail(e.Resource)
	}
	down.Fail(faults.Machine(5))
	down.Fail(faults.Route(0, 1))
	a := feasibility.New(sys)
	machineOK := func(j int) bool { return !down.MachineDown(j) }
	routeOK := func(j1, j2 int) bool { return !down.RouteDown(j1, j2) }
	for k := range sys.Strings {
		if !heuristics.MapStringIMRMasked(a, k, machineOK, routeOK) {
			t.Fatalf("string %d not placeable with 10/12 machines alive", k)
		}
		if StringUsesFailed(a, k, down) {
			t.Fatalf("string %d placed on failed resources", k)
		}
	}
}

// TestMaskedIMRNoMachines: with every machine masked out the placement fails
// and leaves the string unassigned.
func TestMaskedIMRNoMachines(t *testing.T) {
	sys := model.NewUniformSystem(2, 5)
	sys.AddString(model.AppString{Worth: 10, Period: 10, MaxLatency: 100,
		Apps: []model.Application{model.UniformApp(2, 4, 0.5, 1), model.UniformApp(2, 4, 0.5, 1)}})
	a := feasibility.New(sys)
	if heuristics.MapStringIMRMasked(a, 0, func(int) bool { return false }, nil) {
		t.Fatal("placement succeeded with no machines")
	}
	if a.Machine(0, 0) != feasibility.Unassigned || a.Machine(0, 1) != feasibility.Unassigned {
		t.Error("failed placement left assignments behind")
	}
	// All routes masked: a multi-app string must collapse onto one machine.
	if !heuristics.MapStringIMRMasked(a, 0, nil, func(int, int) bool { return false }) {
		t.Fatal("route-free placement failed despite intra-machine hops being allowed")
	}
	if a.Machine(0, 0) != a.Machine(0, 1) {
		t.Error("route-free placement used a route")
	}
}
