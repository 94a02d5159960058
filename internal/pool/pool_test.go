package pool

import (
	"math"
	"testing"

	"repro/internal/heuristics"
	"repro/internal/workload"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPartitionConstructors(t *testing.T) {
	s, err := Uniform(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(4); err != nil {
		t.Fatal(err)
	}
	if len(s.Pools) != 4 || len(s.Pools[2].Members) != 1 || s.Pools[2].Members[0] != 2 {
		t.Errorf("singletons wrong: %+v", s)
	}
	u, err := Uniform(12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Validate(12); err != nil {
		t.Fatal(err)
	}
	if len(u.Pools) != 3 {
		t.Errorf("uniform(12,4) has %d pools, want 3", len(u.Pools))
	}
	// Remainder absorption: 10 machines in pools of 4 -> 4 + 6.
	u2, err := Uniform(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := u2.Validate(10); err != nil {
		t.Fatal(err)
	}
	if len(u2.Pools) != 2 || len(u2.Pools[1].Members) != 6 {
		t.Errorf("uniform(10,4) = %+v, want pools of 4 and 6", u2)
	}
	if _, err := Uniform(4, 0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := Uniform(4, 5); err == nil {
		t.Error("oversized pool accepted")
	}
}

func TestPartitionValidateRejections(t *testing.T) {
	bad := []*Partition{
		{},
		{Pools: []Pool{{Name: "a"}}},
		{Pools: []Pool{{Name: "a", Members: []int{0, 9}}}},
		{Pools: []Pool{{Name: "a", Members: []int{0, 0}}, {Name: "b", Members: []int{1}}}},
		{Pools: []Pool{{Name: "a", Members: []int{0}}}}, // does not cover machine 1
	}
	for i, p := range bad {
		if err := p.Validate(2); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

// TestPooledMappingFeasibleAndCoarser: pooled decisions are coarser, so the
// pooled result can never beat flat on worth by more than noise, and must be
// feasible.
func TestPooledMappingFeasible(t *testing.T) {
	cfg := workload.ScenarioConfig(workload.HighlyLoaded)
	cfg.Strings = 40
	sys := workload.MustGenerate(cfg, 3)
	part, err := Uniform(sys.Machines, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := MapSequencePooled(sys, part, heuristics.MWFOrder(sys))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Alloc.TwoStageFeasible() {
		t.Fatal("pooled mapping infeasible")
	}
	if r.NumMapped == 0 {
		t.Fatal("pooled mapping mapped nothing")
	}
	worth := 0.0
	for k := range sys.Strings {
		if r.Alloc.Complete(k) {
			worth += sys.Strings[k].Worth
		}
	}
	if !approx(worth, r.Metric.Worth, 1e-9) {
		t.Errorf("worth accounting: %v vs %v", worth, r.Metric.Worth)
	}
}

// TestDispatcherSpreadsWithinPool: two heavy single-application strings
// mapped into one pool spanning the suite must land on different members.
func TestDispatcherSpreadsWithinPool(t *testing.T) {
	cfg := workload.ScenarioConfig(workload.LightlyLoaded)
	cfg.Strings = 2
	cfg.MaxAppsPerString = 1
	sys := workload.MustGenerate(cfg, 9)
	part, err := Uniform(sys.Machines, sys.Machines) // one big pool
	if err != nil {
		t.Fatal(err)
	}
	r, err := MapSequencePooled(sys, part, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumMapped != 2 {
		t.Fatalf("%d strings mapped, want both", r.NumMapped)
	}
	if m1, m2 := r.Alloc.Machine(0, 0), r.Alloc.Machine(1, 0); m1 == m2 {
		t.Errorf("dispatcher stacked both applications on machine %d", m1)
	}
}

func TestMapSequencePooledValidation(t *testing.T) {
	cfg := workload.ScenarioConfig(workload.LightlyLoaded)
	cfg.Strings = 2
	sys := workload.MustGenerate(cfg, 1)
	if _, err := MapSequencePooled(sys, &Partition{}, []int{0, 1}); err == nil {
		t.Error("empty partition accepted")
	}
	singletons, err := Uniform(sys.Machines, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := sys.Clone()
	bad.Machines = 0
	if _, err := MapSequencePooled(bad, singletons, []int{0, 1}); err == nil {
		t.Error("invalid system accepted")
	}
	// A repeated or out-of-range index would re-place a placed string or index
	// past the catalog; like heuristics.MapSequence, the pooled mapper refuses.
	for _, order := range [][]int{{0, 0}, {0, 2}, {0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MapSequencePooled accepted order %v over 2 strings", order)
				}
			}()
			_, _ = MapSequencePooled(sys, singletons, order)
		}()
	}
}
