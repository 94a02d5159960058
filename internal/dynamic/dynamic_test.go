package dynamic

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/workload"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestScaleWorkload(t *testing.T) {
	sys := model.NewUniformSystem(2, 5)
	sys.AddString(model.AppString{Worth: 10, Period: 10, MaxLatency: 100,
		Apps: []model.Application{model.UniformApp(2, 4, 0.5, 50)}})
	scaled, err := ScaleWorkload(sys, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := scaled.Strings[0].Apps[0].NominalTime[0]; !approx(got, 6, 1e-12) {
		t.Errorf("scaled time %v, want 6", got)
	}
	if got := scaled.Strings[0].Apps[0].OutputKB; !approx(got, 75, 1e-12) {
		t.Errorf("scaled output %v, want 75", got)
	}
	if got := scaled.Strings[0].Apps[0].NominalUtil[0]; got != 0.5 {
		t.Errorf("utilization changed to %v", got)
	}
	// Original untouched.
	if sys.Strings[0].Apps[0].NominalTime[0] != 4 {
		t.Error("original system mutated")
	}
	if _, err := ScaleWorkload(sys, 0); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := ScaleStrings(sys, []float64{1, 2}); err == nil {
		t.Error("mismatched scale vector accepted")
	}
	if _, err := ScaleStrings(sys, []float64{-1}); err == nil {
		t.Error("negative scale accepted")
	}
}

// TestScaleStringsMatchesCloneOracle: ScaleStrings is the scaled view of
// its input, and equals a deep clone scaled in place — the builder it
// replaced — bit for bit, every non-demand field included, while the input
// keeps every bit.
func TestScaleStringsMatchesCloneOracle(t *testing.T) {
	cfg := workload.ScenarioConfig(workload.HighlyLoaded)
	cfg.Strings = 30
	sys := workload.MustGenerate(cfg, 4)
	rng := rand.New(rand.NewSource(9))
	gammas := make([]float64, len(sys.Strings))
	for k := range gammas {
		gammas[k] = 0.5 + 2*rng.Float64()
	}
	before := sys.Clone()
	got, err := ScaleStrings(sys, gammas)
	if err != nil {
		t.Fatal(err)
	}
	want := sys.Clone()
	for k := range want.Strings {
		model.ScaleDemand(want.Strings[k].Apps, want.Strings[k].Apps, gammas[k])
	}
	// DeepEqual compares floats with ==, which -0 and NaN would fool; the
	// generated catalog has neither, and the bits are compared below too.
	if !reflect.DeepEqual(got, want) {
		t.Fatal("ScaleStrings differs from the clone + ScaleDemand oracle")
	}
	for k := range want.Strings {
		for i := range want.Strings[k].Apps {
			g, w := &got.Strings[k].Apps[i], &want.Strings[k].Apps[i]
			for j := range w.NominalTime {
				if math.Float64bits(g.NominalTime[j]) != math.Float64bits(w.NominalTime[j]) {
					t.Fatalf("string %d app %d machine %d: time %x, oracle %x", k, i, j,
						math.Float64bits(g.NominalTime[j]), math.Float64bits(w.NominalTime[j]))
				}
			}
			if math.Float64bits(g.OutputKB) != math.Float64bits(w.OutputKB) {
				t.Fatalf("string %d app %d: output %x, oracle %x", k, i,
					math.Float64bits(g.OutputKB), math.Float64bits(w.OutputKB))
			}
		}
	}
	if !reflect.DeepEqual(sys, before) {
		t.Error("ScaleStrings wrote its input")
	}
}

// TestTransferAllocation: a mapping carries onto a scaled view of its
// system through a snapshot, the way every caller moves one onto a surged
// workload, and is priced there at the scaled demand; a system of another
// shape is refused.
func TestTransferAllocation(t *testing.T) {
	sys := model.NewUniformSystem(2, 5)
	for k := 0; k < 2; k++ {
		sys.AddString(model.AppString{Worth: 10, Period: 20, MaxLatency: 100,
			Apps: []model.Application{model.UniformApp(2, 2, 0.4, 20), model.UniformApp(2, 2, 0.4, 20)}})
	}
	a := feasibility.New(sys)
	a.AssignString(0, []int{0, 1})
	// String 1 left unmapped.
	scaled, err := ScaleWorkload(sys, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := feasibility.FromSnapshot(scaled, a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !b.Complete(0) || b.Complete(1) {
		t.Error("want string 0 carried and string 1 left unmapped")
	}
	if b.Machine(0, 0) != 0 || b.Machine(0, 1) != 1 {
		t.Error("assignments not carried")
	}
	// Utilization reflects the scaled workload: 2*1.2*0.4/20 = 0.048.
	if got := b.MachineUtilization(0); !approx(got, 0.048, 1e-12) {
		t.Errorf("scaled utilization %v, want 0.048", got)
	}
	// Shape mismatch rejected.
	other := model.NewUniformSystem(2, 5)
	if _, err := feasibility.FromSnapshot(other, a.Snapshot()); err == nil {
		t.Error("shape mismatch accepted")
	}
}

// TestRepairMigrates: one machine overloads after growth, but a second
// machine has room — repair must migrate, not evict.
func TestRepairMigrates(t *testing.T) {
	sys := model.NewUniformSystem(2, 10)
	for k := 0; k < 2; k++ {
		sys.AddString(model.AppString{Worth: 10, Period: 10, MaxLatency: 100,
			Apps: []model.Application{model.UniformApp(2, 6, 1, 1)}})
	}
	a := feasibility.New(sys)
	a.Assign(0, 0, 0)
	a.Assign(1, 0, 0) // both on machine 0: U = 1.2, and comp of the looser
	// string is 12 > P = 10.
	res := Repair(a)
	if !res.Feasible {
		t.Fatal("repair did not reach feasibility")
	}
	if !a.Complete(0) || !a.Complete(1) {
		t.Fatalf("repair evicted instead of migrating (actions %+v)", res.Actions)
	}
	if a.Machine(0, 0) == a.Machine(1, 0) {
		t.Error("strings still share a machine")
	}
	if res.WorthAfter != 20 || res.WorthBefore != 20 {
		t.Errorf("worth %v -> %v, want 20 -> 20", res.WorthBefore, res.WorthAfter)
	}
	if len(res.Actions) != 1 || res.Actions[0].Kind != Migrated || res.Actions[0].MovedApps != 1 {
		t.Errorf("actions = %+v, want one migration moving one application", res.Actions)
	}
}

// TestRepairEvictsLowestWorth: when nothing fits anywhere, the lowest-worth
// string goes first.
func TestRepairEvictsLowestWorth(t *testing.T) {
	sys := model.NewUniformSystem(1, 10)
	worths := []float64{100, 1, 10}
	for _, w := range worths {
		sys.AddString(model.AppString{Worth: w, Period: 10, MaxLatency: 100,
			Apps: []model.Application{model.UniformApp(1, 5, 0.9, 1)}})
	}
	a := feasibility.New(sys)
	for k := range worths {
		a.Assign(k, 0, 0) // U = 1.35
	}
	res := Repair(a)
	if !res.Feasible {
		t.Fatal("repair failed")
	}
	if !a.Complete(0) || a.Complete(1) || !a.Complete(2) {
		t.Errorf("want only the worth-1 string evicted (actions %+v)", res.Actions)
	}
	if res.WorthAfter != 110 {
		t.Errorf("worth after %v, want 110", res.WorthAfter)
	}
	if res.Actions[len(res.Actions)-1].Kind != Evicted && res.Actions[0].Kind != Evicted {
		t.Errorf("no eviction recorded: %+v", res.Actions)
	}
}

func TestRepairNoopOnFeasible(t *testing.T) {
	sys := model.NewUniformSystem(2, 10)
	sys.AddString(model.AppString{Worth: 10, Period: 20, MaxLatency: 100,
		Apps: []model.Application{model.UniformApp(2, 2, 0.4, 20)}})
	a := feasibility.New(sys)
	a.Assign(0, 0, 0)
	res := Repair(a)
	if len(res.Actions) != 0 || !res.Feasible || !a.Complete(0) {
		t.Errorf("repair acted on a feasible mapping: %+v", res)
	}
}

// TestRepairAfterGrowthPipeline: the full dynamic flow on generated
// workloads — allocate, grow, transfer, repair — always ends feasible, never
// increases worth, and preserves determinism.
func TestRepairAfterGrowthPipeline(t *testing.T) {
	cfg := workload.ScenarioConfig(workload.LightlyLoaded)
	cfg.Strings = 12
	for seed := int64(1); seed <= 5; seed++ {
		sys := workload.MustGenerate(cfg, seed)
		r := heuristics.MWF(sys)
		scaled, err := ScaleWorkload(sys, 2.5)
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := feasibility.FromSnapshot(scaled, r.Alloc.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		res := Repair(alloc)
		if !res.Feasible || !alloc.TwoStageFeasible() {
			t.Fatalf("seed %d: repair did not restore feasibility", seed)
		}
		if res.WorthAfter > res.WorthBefore+1e-9 {
			t.Fatalf("seed %d: repair increased worth %v -> %v", seed, res.WorthBefore, res.WorthAfter)
		}
		if got := alloc.Metric().Worth; got != res.WorthAfter {
			t.Fatalf("seed %d: WorthAfter %v, allocation holds %v", seed, res.WorthAfter, got)
		}
	}
}

// TestPickVictimNearTieDeterministic: AlmostEqual is not transitive, so with
// worths a ≈ b ≈ c but a ≉ c the victim depends on the order candidates are
// visited in. That order is ascending string ID — never map order — so the
// same overloaded state must name the same victim every time: 0 yields to
// the tighter near-equal 1, which yields to the tighter near-equal 2.
func TestPickVictimNearTieDeterministic(t *testing.T) {
	sys := model.NewUniformSystem(1, 10)
	worths := []float64{1, 1 + 0.8e-9, 1 + 1.6e-9}
	latencies := []float64{100, 50, 25} // tightness rises with the string ID
	for k, w := range worths {
		sys.AddString(model.AppString{Worth: w, Period: 10, MaxLatency: latencies[k],
			Apps: []model.Application{model.UniformApp(1, 5, 0.9, 1)}})
	}
	if !feasibility.AlmostEqual(worths[0], worths[1]) || !feasibility.AlmostEqual(worths[1], worths[2]) ||
		feasibility.AlmostEqual(worths[0], worths[2]) {
		t.Fatal("worths do not form a non-transitive near-tie")
	}
	for round := 0; round < 64; round++ {
		a := feasibility.New(sys)
		for k := range worths {
			a.Assign(k, 0, 0) // U = 1.35: every string is implicated
		}
		r := newRepairer(a, nil, nil)
		if got := r.pickVictim(); got != 2 {
			t.Fatalf("round %d: victim %d, want 2", round, got)
		}
		r.result()
	}
}

// nearTieChain returns n worths 1 + i·0.6e-9: each is feasibility.AlmostEqual
// to its neighbours but not to the ones two away, a chain the non-transitive
// tie rule of the worth sorts cannot order on its own.
func nearTieChain(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 + float64(i)*0.6e-9
	}
	return out
}

// TestReclaimNearTieChainDeterministic: Repair on one machine evicts five
// small near-tie strings and then the large one (tighter than its near-tie
// neighbour) before the machine fits; the reclaim pass then takes the five
// small ones back, in the order its worth sort gives them. Gathered in map order that sort returned a different
// order from run to run; gathered in ascending ID every run must log the same
// actions.
func TestReclaimNearTieChainDeterministic(t *testing.T) {
	chain := nearTieChain(8)
	sys := model.NewUniformSystem(1, 10)
	add := func(w, demand float64) {
		sys.AddString(model.AppString{Worth: w, Period: 10, MaxLatency: 1000,
			Apps: []model.Application{model.UniformApp(1, demand*10, 1, 0)}})
	}
	for k := 0; k < 6; k++ {
		add(chain[k], 0.04)
	}
	add(chain[6], 0.5)
	add(chain[7], 0.06)
	add(100, 0.5) // U = 1.3
	var first []Action
	for round := 0; round < 50; round++ {
		a := feasibility.New(sys)
		for k := range sys.Strings {
			a.Assign(k, 0, 0)
		}
		res := Repair(a)
		if round == 0 {
			first = res.Actions
			if _, evicted, reclaimed := res.Counts(); evicted != 6 || reclaimed != 5 {
				t.Fatalf("evicted %d, reclaimed %d, want 6/5: %+v", evicted, reclaimed, res.Actions)
			}
			continue
		}
		if !reflect.DeepEqual(res.Actions, first) {
			t.Fatalf("round %d: actions %+v\nwant %+v", round, res.Actions, first)
		}
	}
}
