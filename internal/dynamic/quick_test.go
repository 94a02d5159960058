package dynamic

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/faults"
	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/workload"
)

// chaosCase generates a random scenario-3 system with an MWF allocation plus
// a random outage set, for failover properties.
type chaosCase struct {
	Seed    int64
	Gamma   float64
	Kills   []int // machines taken out by compartment hits
	ExtraRt [][2]int
}

// Generate implements quick.Generator.
func (chaosCase) Generate(rng *rand.Rand, size int) reflect.Value {
	c := chaosCase{
		Seed:  1 + rng.Int63n(1<<20),
		Gamma: 0.8 + rng.Float64()*1.4, // workload drift in [0.8, 2.2)
	}
	// Scenario 3 has 12 machines; hit 0–5 of them.
	perm := rng.Perm(12)
	c.Kills = perm[:rng.Intn(6)]
	for n := rng.Intn(4); n > 0; n-- {
		from, to := rng.Intn(12), rng.Intn(12)
		if from != to {
			c.ExtraRt = append(c.ExtraRt, [2]int{from, to})
		}
	}
	return reflect.ValueOf(c)
}

// build materializes the case: a γ-scaled system with the transferred MWF
// allocation, and the outage set.
func (c chaosCase) build(t *testing.T) (*feasibility.Allocation, *faults.Set) {
	t.Helper()
	cfg := workload.ScenarioConfig(workload.LightlyLoaded)
	cfg.Strings = 10
	sys := workload.MustGenerate(cfg, c.Seed)
	r := heuristics.MWF(sys)
	scaled, err := ScaleWorkload(sys, c.Gamma)
	if err != nil {
		t.Fatal(err)
	}
	a, err := feasibility.FromSnapshot(scaled, r.Alloc.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	down := faults.NewSet(sys.Machines)
	for _, j := range c.Kills {
		for _, e := range faults.CompartmentHit(sys.Machines, j, 0, 0) {
			down.Fail(e.Resource)
		}
	}
	for _, rt := range c.ExtraRt {
		down.Fail(faults.Route(rt[0], rt[1]))
	}
	return a, down
}

// Property: after Repair followed by Survive, the allocation is two-stage
// feasible, avoids every failed resource, and Retained stays in [0, 1].
func TestQuickSurviveInvariants(t *testing.T) {
	f := func(c chaosCase) bool {
		a, down := c.build(t)
		rep := Repair(a)
		if !rep.Feasible || rep.Retained < 0 || rep.Retained > 1+1e-12 {
			t.Logf("seed %d γ=%.3f: repair retained %v feasible %v", c.Seed, c.Gamma, rep.Retained, rep.Feasible)
			return false
		}
		res, err := Survive(a, down)
		if err != nil {
			t.Logf("seed %d: %v", c.Seed, err)
			return false
		}
		if !res.Feasible || !a.TwoStageFeasible() {
			t.Logf("seed %d γ=%.3f kills %v: post-survive infeasible", c.Seed, c.Gamma, c.Kills)
			return false
		}
		if UsesFailed(a, down) {
			t.Logf("seed %d kills %v: allocation uses failed resources", c.Seed, c.Kills)
			return false
		}
		if res.Retained < 0 || res.Retained > 1+1e-12 {
			t.Logf("seed %d: retained %v outside [0,1]", c.Seed, res.Retained)
			return false
		}
		if res.CostSeconds < 0 {
			t.Logf("seed %d: negative recovery cost %v", c.Seed, res.CostSeconds)
			return false
		}
		if got := a.Metric().Worth; got != res.WorthAfter {
			t.Logf("seed %d: WorthAfter %v, allocation holds %v", c.Seed, res.WorthAfter, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Survive never leaves one of its own evictions stranded — a
// string mapped at entry that ends up unmapped has no feasible IMR
// re-placement on the final allocation (the reclaim-pass fixpoint
// guarantee). Strings already unmapped at entry (e.g. evicted by an earlier
// Repair) are outside Survive's contract: re-placing them would inflate
// WorthAfter past WorthBefore.
func TestQuickNoNeedlessEvictions(t *testing.T) {
	f := func(c chaosCase) bool {
		a, down := c.build(t)
		Repair(a)
		wasMapped := make([]bool, len(a.System().Strings))
		for k := range wasMapped {
			wasMapped[k] = a.Complete(k)
		}
		if _, err := Survive(a, down); err != nil {
			t.Logf("seed %d: %v", c.Seed, err)
			return false
		}
		machineOK := func(j int) bool { return !down.MachineDown(j) }
		routeOK := func(j1, j2 int) bool { return !down.RouteDown(j1, j2) }
		for k, was := range wasMapped {
			if !was || a.Complete(k) {
				continue
			}
			if heuristics.MapStringIMRMasked(a, k, machineOK, routeOK) {
				// Survive left a feasible state, so the full analysis asks
				// exactly whether the re-placement broke it.
				feasible := a.TwoStageFeasible()
				a.UnassignString(k)
				if feasible {
					t.Logf("seed %d γ=%.3f kills %v: string %d stayed evicted but re-placement is feasible",
						c.Seed, c.Gamma, c.Kills, k)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: Survive is deterministic — the same case repaired twice from
// scratch yields identical worth, cost, and action log length.
func TestQuickSurviveDeterministic(t *testing.T) {
	f := func(c chaosCase) bool {
		a1, down := c.build(t)
		a2, _ := c.build(t)
		Repair(a1)
		Repair(a2)
		r1, err1 := Survive(a1, down)
		r2, err2 := Survive(a2, down)
		if err1 != nil || err2 != nil {
			return false
		}
		if r1.WorthAfter != r2.WorthAfter || r1.CostSeconds != r2.CostSeconds || len(r1.Actions) != len(r2.Actions) {
			t.Logf("seed %d: non-deterministic survive: %v/%v vs %v/%v", c.Seed,
				r1.WorthAfter, r1.CostSeconds, r2.WorthAfter, r2.CostSeconds)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
