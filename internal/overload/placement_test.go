package overload

import (
	"math"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/workload"
)

// feasibleAfterAdding is the oracle for placementSound: the neighbourhood
// check the controller called on the allocation before it asked the analyzer
// (the core's former FeasibleAfterAdding), term for term, over exported
// accessors only. It runs the full checkString on every string it judges and
// reuses nothing.
func feasibleAfterAdding(a *feasibility.Allocation, k int) bool {
	n := len(a.System().Strings[k].Apps)
	affected := make(map[int]bool)
	mark := func(z int) {
		if z != k {
			affected[z] = true
		}
	}
	for i := 0; i < n; i++ {
		m := a.Machine(k, i)
		if a.MachineUtilization(m) > feasibility.CapacityLimit {
			return false
		}
		a.StringsOnMachine(m, mark)
		if i == n-1 {
			break
		}
		if next := a.Machine(k, i+1); next != m {
			if a.RouteUtilization(m, next) > feasibility.CapacityLimit {
				return false
			}
			a.StringsOnRoute(m, next, mark)
		}
	}
	if a.CheckString(k) != nil {
		return false
	}
	for z := range affected {
		// Strictly tighter strings cannot be slowed by k. Equal tightness
		// falls through: the ID tie-break can demote z.
		if a.Tightness(z) > a.Tightness(k) {
			continue
		}
		if a.CheckString(z) != nil {
			return false
		}
	}
	return true
}

// agree asks placementSound and the oracle about string k as placed in da's
// open window and fails the test on any difference.
func agree(t *testing.T, label string, da *feasibility.DeltaAnalyzer, k int) bool {
	t.Helper()
	got, want := placementSound(da, k), feasibleAfterAdding(da.Allocation(), k)
	if got != want {
		t.Fatalf("%s: placementSound(%d) = %v, oracle %v", label, k, got, want)
	}
	return got
}

// TestPlacementSoundMatchesOracleUnderSurge replays the controller's shed loop
// — its own healthy and pickVictim — on the golden case's systems at the
// surge's 2.5x demand, where the state is infeasible throughout, and holds
// every migration verdict to the oracle. Both branches must be taken.
func TestPlacementSoundMatchesOracleUnderSurge(t *testing.T) {
	anyMachine, anyRoute := func(int) bool { return true }, func(int, int) bool { return true }
	kept, refused := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		base := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), seed)
		sys, err := dynamic.ScaleWorkload(base, 2.5)
		if err != nil {
			t.Fatal(err)
		}
		a, err := feasibility.FromSnapshot(sys, heuristics.MWF(base).Alloc.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		ctl := Config{ShedBelow: 0.02, ReadmitAbove: 0.1}.WithDefaults()
		da := feasibility.Track(a)
		n := len(sys.Strings)
		wpu, implicated, tried := make([]float64, n), make([]bool, n), make([]bool, n)
		invBW := sys.AvgInvBandwidth()
		for k := range wpu {
			wpu[k] = worthPerUtil(sys, k, invBW)
		}
		for !ctl.healthy(da) {
			victim := ctl.pickVictim(da, wpu, implicated)
			if victim < 0 {
				t.Fatalf("seed %d: unhealthy with nothing implicated", seed)
			}
			a.UnassignString(victim)
			if tried[victim] {
				continue
			}
			tried[victim] = true
			if !heuristics.MapStringIMRMasked(a, victim, anyMachine, anyRoute) {
				continue
			}
			if agree(t, "surge", da, victim) {
				kept++
				continue
			}
			refused++
			a.UnassignString(victim)
		}
	}
	if kept == 0 || refused == 0 {
		t.Fatalf("vacuous: %d migrations kept, %d refused — both branches must be taken", kept, refused)
	}
}

// TestPlacementSoundOnFeasibleBase: placed on a feasible committed state, a
// string is sound exactly when the whole allocation stays two-stage feasible
// (the property the core's former entry point was held to), here along a
// sequential IMR admission of the heavily loaded scenario.
func TestPlacementSoundOnFeasibleBase(t *testing.T) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 4)
	a := feasibility.New(sys)
	da := feasibility.Track(a)
	admitted, rejected := 0, 0
	for k := range sys.Strings {
		heuristics.MapStringIMR(a, k)
		sound := agree(t, "admission", da, k)
		if full := a.TwoStageFeasible(); sound != full {
			t.Fatalf("string %d on a feasible base: sound %v, TwoStageFeasible %v", k, sound, full)
		}
		if sound {
			da.Commit()
			admitted++
		} else {
			da.Undo()
			rejected++
		}
	}
	if admitted == 0 || rejected == 0 {
		t.Fatalf("vacuous: %d admitted, %d rejected", admitted, rejected)
	}
}

// TestPlacementSoundForcedTie: an exact tightness tie is broken by string ID,
// so placing the lower-ID string demotes an equal-tightness incumbent, whose
// waits must be rechecked — the tightness filter is <=, not <.
func TestPlacementSoundForcedTie(t *testing.T) {
	// Two identical one-app strings: T = 2/100 each, util 0.5 each, so both
	// fit stage 1 on one machine, but the demoted one waits a full t*u and
	// busts its period: 2 + 2.8*(2*0.5/2.8) = 3 > 2.8.
	sys := model.NewUniformSystem(2, 1)
	for k := 0; k < 2; k++ {
		sys.AddString(model.AppString{
			Worth:      10,
			Period:     2.8,
			MaxLatency: 100,
			Apps:       []model.Application{model.UniformApp(2, 2.0, 0.5, 10)},
		})
	}
	// Order A: the higher-ID string first, then the lower-ID, tie-winning one.
	a := feasibility.New(sys)
	da := feasibility.Track(a)
	a.Assign(1, 0, 0)
	if !agree(t, "tie A", da, 1) {
		t.Fatal("a single string must be sound")
	}
	da.Commit()
	a.Assign(0, 0, 0)
	if math.Float64bits(a.Tightness(0)) != math.Float64bits(a.Tightness(1)) {
		t.Fatal("setup failed to force an exact tightness tie")
	}
	if agree(t, "tie A", da, 0) {
		t.Fatal("demoted equal-tightness string 1 busts its period; must be detected")
	}
	// Order B: lower ID first. String 0 stays tie-tighter and unaffected;
	// string 1 itself carries the wait and violates.
	b := feasibility.New(sys)
	db := feasibility.Track(b)
	b.Assign(0, 0, 0)
	db.Commit()
	b.Assign(1, 0, 0)
	if agree(t, "tie B", db, 1) {
		t.Fatal("tie-losing string 1 busts its own period; must be detected")
	}
}
