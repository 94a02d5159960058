package heuristics

import (
	"math/rand"
	"testing"

	"repro/internal/genitor"
	"repro/internal/model"
)

func TestClassKeyLexicographic(t *testing.T) {
	sys := model.NewUniformSystem(2, 5)
	// Strings: one high, three medium, two low.
	worths := []float64{100, 10, 10, 10, 1, 1}
	for _, w := range worths {
		sys.AddString(model.AppString{Worth: w, Period: 50, MaxLatency: 500,
			Apps: []model.Application{model.UniformApp(2, 1, 0.2, 10)}})
	}
	key := func(mapped []bool) float64 {
		return classKey(sys, func(k int) bool { return mapped[k] })
	}
	// One high string beats all mediums and lows together.
	onlyHigh := []bool{true, false, false, false, false, false}
	everythingElse := []bool{false, true, true, true, true, true}
	if key(onlyHigh) <= key(everythingElse) {
		t.Error("one high-worth string must outrank all medium/low strings in the alternate scheme")
	}
	// Under the standard metric the comparison flips (30+2 > 100? no - pick
	// bigger class): with 11 mediums it would flip; verify monotonicity
	// within a class instead.
	oneMed := []bool{false, true, false, false, false, false}
	twoMed := []bool{false, true, true, false, false, false}
	if key(twoMed) <= key(oneMed) {
		t.Error("more medium worth must increase the key when high class ties")
	}
	medBeatsLows := []bool{false, true, false, false, true, true}
	if key(medBeatsLows) <= key(oneMed) {
		t.Error("extra lows must increase the key when higher classes tie")
	}
}

func TestClassedOrderGroupsByClass(t *testing.T) {
	sys := model.NewUniformSystem(2, 5)
	worths := []float64{1, 100, 10, 100, 1, 10}
	for _, w := range worths {
		sys.AddString(model.AppString{Worth: w, Period: 50, MaxLatency: 500,
			Apps: []model.Application{model.UniformApp(2, 1, 0.2, 10)}})
	}
	order := ClassedOrder(sys)
	if !genitor.IsPermutation(order, len(worths)) {
		t.Fatalf("not a permutation: %v", order)
	}
	lastClass := 0
	for _, k := range order {
		class := 2
		switch worths[k] {
		case 100:
			class = 0
		case 10:
			class = 1
		}
		if class < lastClass {
			t.Fatalf("order %v interleaves classes", order)
		}
		lastClass = class
	}
}

// TestClassedPSGPrefersHighWorth: construct a system where the standard
// metric prefers many mediums over one high, and check the classed scheme
// keeps the high string.
func TestClassedPSGPrefersHighWorth(t *testing.T) {
	sys := model.NewUniformSystem(1, 5)
	// Machine capacity 1. The high string needs 0.9; each medium needs 0.3.
	// Standard optimum: 3 mediums = 30 worth... wait, high = 100 > 30, so
	// make 15 mediums (150 worth > 100) of which 3 fit: 30 < 100. To flip
	// the standard preference, use mediums of worth 40 (i.e. more than 2
	// mediums beat one high in total worth: 2 x 40 = 80 < 100, 3 x 40 = 120
	// > 100, and 3 mediums (0.9) exclude the high string (0.9 + 0.3 > 1).
	sys.AddString(model.AppString{Worth: 100, Period: 10, MaxLatency: 1000,
		Apps: []model.Application{model.UniformApp(1, 9, 1, 0)}})
	for i := 0; i < 3; i++ {
		sys.AddString(model.AppString{Worth: 40, Period: 10, MaxLatency: 1000,
			Apps: []model.Application{model.UniformApp(1, 3, 1, 0)}})
	}
	cfg := testPSGConfig(3)
	std := Run("PSG", sys, cfg)
	if std.Metric.Worth != 120 || std.Alloc.Complete(0) {
		t.Fatalf("premise broken: standard PSG should map the three worth-40 strings, got %+v", std.Metric)
	}
	classed := Run("ClassedPSG", sys, cfg)
	if !classed.Alloc.Complete(0) {
		t.Fatal("classed scheme failed to map the high-worth string")
	}
	high, _, _ := MappedWorthByClass(sys, classed)
	if high != 100 {
		t.Errorf("high-class worth %v, want 100", high)
	}
	if classed.Name != "ClassedPSG" || classed.Evaluations == 0 {
		t.Errorf("metadata: %+v", classed)
	}
}

// TestClassedPSGFeasibleOnRandomSystems: the classed scheme still emits only
// feasible mappings.
func TestClassedPSGFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 3; trial++ {
		sys := randomTestSystem(rng, 3, 10)
		r := Run("ClassedPSG", sys, testPSGConfig(int64(trial)))
		if !r.Alloc.TwoStageFeasible() {
			t.Fatalf("trial %d: infeasible classed mapping", trial)
		}
		// Never worse than the classed seed ordering itself.
		seed := MapSequence(sys, ClassedOrder(sys))
		score := classedScore(sys)
		if score(seed.Alloc).Better(score(r.Alloc)) {
			t.Fatalf("trial %d: classed PSG below its own seed", trial)
		}
	}
}
