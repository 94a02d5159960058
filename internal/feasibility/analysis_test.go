package feasibility

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// figure2System builds the two-string, one-shared-machine setup of Figure 2:
// string 0 (the paper's string 1) is relatively tighter than string 1 and so
// has execution priority on the shared machine 0.
func figure2System(p1, p2, u1 float64) *model.System {
	sys := model.NewUniformSystem(2, 5)
	a1 := model.UniformApp(2, 4, u1, 10) // t = 4 s
	sys.AddString(model.AppString{Worth: 10, Period: p1, MaxLatency: 5, Apps: []model.Application{a1}})
	a2 := model.UniformApp(2, 2, 1.0, 10) // t = 2 s
	sys.AddString(model.AppString{Worth: 10, Period: p2, MaxLatency: 100, Apps: []model.Application{a2}})
	return sys
}

// TestFigure2Case1 reproduces case (1): equal periods, both applications able
// to use 100% of the CPU. The lower-priority application waits a full t1:
// t_comp^2[1] = t2 + t1.
func TestFigure2Case1(t *testing.T) {
	sys := figure2System(10, 10, 1.0)
	a := New(sys)
	a.Assign(0, 0, 0)
	a.Assign(1, 0, 0)
	if got := a.Tightness(0); !approx(got, 4.0/5, 1e-12) {
		t.Errorf("T[0] = %v, want 0.8", got)
	}
	if got := a.Tightness(1); !approx(got, 2.0/100, 1e-12) {
		t.Errorf("T[1] = %v, want 0.02", got)
	}
	if got := a.EstimatedCompTime(0, 0); !approx(got, 4, 1e-12) {
		t.Errorf("priority application delayed: t_comp = %v, want 4", got)
	}
	if got := a.EstimatedCompTime(1, 0); !approx(got, 2+4, 1e-12) {
		t.Errorf("case 1: t_comp = %v, want 6", got)
	}
}

// TestFigure2Case2 reproduces case (2): P[1] = 2 P[2], so only every other
// data set of the lower-priority application is delayed and the average wait
// scales by P[2]/P[1]: t_comp^2[1] = t2 + (P2/P1) t1.
func TestFigure2Case2(t *testing.T) {
	sys := figure2System(20, 10, 1.0)
	a := New(sys)
	a.Assign(0, 0, 0)
	a.Assign(1, 0, 0)
	if got := a.EstimatedCompTime(1, 0); !approx(got, 2+0.5*4, 1e-12) {
		t.Errorf("case 2: t_comp = %v, want 4", got)
	}
}

// TestFigure2Case3 reproduces case (3): as case (2) but the priority
// application can use at most 50% of the CPU, so the waiting term also scales
// by u1: t_comp^2[1] = t2 + (P2/P1) u1 t1.
func TestFigure2Case3(t *testing.T) {
	sys := figure2System(20, 10, 0.5)
	a := New(sys)
	a.Assign(0, 0, 0)
	a.Assign(1, 0, 0)
	if got := a.EstimatedCompTime(1, 0); !approx(got, 2+0.5*0.5*4, 1e-12) {
		t.Errorf("case 3: t_comp = %v, want 3", got)
	}
}

// twoStringPipeline builds two 2-application strings whose transfer both uses
// route 0 -> 1 when mapped across machines.
func twoStringPipeline() *model.System {
	sys := model.NewUniformSystem(2, 1) // 1 Mb/s: 100 KB transfer takes 0.8 s
	mk := func(tSec float64, out float64, period, lmax float64) model.AppString {
		return model.AppString{Worth: 10, Period: period, MaxLatency: lmax,
			Apps: []model.Application{
				model.UniformApp(2, tSec, 1, out),
				model.UniformApp(2, tSec, 1, out),
			}}
	}
	sys.AddString(mk(1, 100, 10, 4))  // tighter: (1+0.8+1)/4 = 0.7
	sys.AddString(mk(1, 50, 10, 100)) // looser: (1+0.4+1)/100 = 0.024
	return sys
}

func TestUtilizationBookkeeping(t *testing.T) {
	sys := twoStringPipeline()
	a := New(sys)
	a.AssignString(0, []int{0, 1})
	a.AssignString(1, []int{0, 1})
	// Machine 0: two apps with t*u/P = 1*1/10 each = 0.2 total.
	if got := a.MachineUtilization(0); !approx(got, 0.2, 1e-12) {
		t.Errorf("U_machine[0] = %v, want 0.2", got)
	}
	// Route 0->1: (0.8 Mb / 10 s)/1 Mb/s + (0.4/10)/1 = 0.08 + 0.04 = 0.12.
	if got := a.RouteUtilization(0, 1); !approx(got, 0.12, 1e-12) {
		t.Errorf("U_route[0][1] = %v, want 0.12", got)
	}
	if got := a.RouteUtilization(1, 0); got != 0 {
		t.Errorf("U_route[1][0] = %v, want 0", got)
	}
	if got := a.RouteUtilization(1, 1); got != 0 {
		t.Errorf("diagonal route utilization = %v, want 0", got)
	}
	// Slackness: min(1-0.2, 1-0.2, 1-0.12, 1-0) = 0.8.
	if got := a.Slackness(); !approx(got, 0.8, 1e-12) {
		t.Errorf("slackness = %v, want 0.8", got)
	}
}

// TestEstimatedTranTime checks equation (6): the looser string's transfer
// waits for the tighter string's transfer on the shared route, scaled by the
// period ratio.
func TestEstimatedTranTime(t *testing.T) {
	sys := twoStringPipeline()
	a := New(sys)
	a.AssignString(0, []int{0, 1})
	a.AssignString(1, []int{0, 1})
	// Tighter string: no waiting, nominal 0.8 s.
	if got := a.EstimatedTranTime(0, 0); !approx(got, 0.8, 1e-12) {
		t.Errorf("tight string transfer = %v, want 0.8", got)
	}
	// Looser string: 0.4 + P[1]*(0.8/P[0]) = 0.4 + 10*0.08 = 1.2.
	if got := a.EstimatedTranTime(1, 0); !approx(got, 1.2, 1e-12) {
		t.Errorf("loose string transfer = %v, want 1.2", got)
	}
	// Intra-machine placement has zero transfer time.
	b := New(sys)
	b.AssignString(0, []int{0, 0})
	if got := b.EstimatedTranTime(0, 0); got != 0 {
		t.Errorf("intra-machine transfer = %v, want 0", got)
	}
}

func TestStringLatencyAndCheck(t *testing.T) {
	sys := twoStringPipeline()
	a := New(sys)
	a.AssignString(0, []int{0, 1})
	a.AssignString(1, []int{0, 1})
	// String 0 latency: comp 1 + tran 0.8 + comp 1 = 2.8 <= 4.
	if got := a.StringLatency(0); !approx(got, 2.8, 1e-12) {
		t.Errorf("latency(0) = %v, want 2.8", got)
	}
	// String 1: comp (1 + 10*(1*1/10)) = 2, tran 1.2, comp 2 -> 5.2 <= 100.
	if got := a.StringLatency(1); !approx(got, 5.2, 1e-12) {
		t.Errorf("latency(1) = %v, want 5.2", got)
	}
	if v := a.CheckString(0); v != nil {
		t.Errorf("string 0 unexpectedly infeasible: %v", v)
	}
	if !a.TwoStageFeasible() {
		t.Error("mapping should be two-stage feasible")
	}
	if len(a.Violations()) != 0 {
		t.Errorf("unexpected violations: %v", a.Violations())
	}
}

func TestLatencyViolationDetected(t *testing.T) {
	sys := twoStringPipeline()
	sys.Strings[1].MaxLatency = 5 // latency 5.2 > 5, but still looser than string 0
	a := New(sys)
	a.AssignString(0, []int{0, 1})
	a.AssignString(1, []int{0, 1})
	v := a.CheckString(1)
	if v == nil || v.Kind != "latency" {
		t.Fatalf("want latency violation, got %v", v)
	}
	if v.Error() == "" {
		t.Error("violation must render an error string")
	}
	if a.Stage2Feasible() {
		t.Error("stage 2 must fail")
	}
	if a.TwoStageFeasible() {
		t.Error("two-stage must fail")
	}
}

func TestThroughputViolationDetected(t *testing.T) {
	sys := model.NewUniformSystem(1, 5)
	// Computation time 8 s with period 5 s: throughput violation even alone.
	sys.AddString(model.AppString{Worth: 1, Period: 5, MaxLatency: 100,
		Apps: []model.Application{model.UniformApp(1, 8, 1, 0)}})
	a := New(sys)
	a.Assign(0, 0, 0)
	v := a.CheckString(0)
	if v == nil || v.Kind != "throughput-comp" {
		t.Fatalf("want throughput-comp violation, got %v", v)
	}
	if v.Error() == "" {
		t.Error("violation must render an error string")
	}
}

func TestTransferThroughputViolation(t *testing.T) {
	sys := model.NewUniformSystem(2, 1)
	// 1000 KB over 1 Mb/s = 8 s > period 5 s.
	sys.AddString(model.AppString{Worth: 1, Period: 5, MaxLatency: 1000,
		Apps: []model.Application{
			model.UniformApp(2, 1, 1, 1000),
			model.UniformApp(2, 1, 1, 0),
		}})
	a := New(sys)
	a.AssignString(0, []int{0, 1})
	v := a.CheckString(0)
	if v == nil || v.Kind != "throughput-tran" {
		t.Fatalf("want throughput-tran violation, got %v", v)
	}
	if v.Error() == "" {
		t.Error("violation must render an error string")
	}
}

func TestStage1OverUtilization(t *testing.T) {
	sys := model.NewUniformSystem(1, 5)
	for k := 0; k < 3; k++ {
		// Each app demands 0.4 utilization; three on one machine exceed 1.
		sys.AddString(model.AppString{Worth: 1, Period: 10, MaxLatency: 1000,
			Apps: []model.Application{model.UniformApp(1, 5, 0.8, 0)}})
	}
	a := New(sys)
	a.Assign(0, 0, 0)
	a.Assign(1, 0, 0)
	if !a.Stage1Feasible() {
		t.Fatal("two apps at 0.8 total should pass stage 1")
	}
	a.Assign(2, 0, 0)
	if a.Stage1Feasible() {
		t.Fatal("1.2 utilization must fail stage 1")
	}
}

func TestMetricAndBetter(t *testing.T) {
	sys := twoStringPipeline()
	a := New(sys)
	a.AssignString(0, []int{0, 1})
	m := a.Metric()
	if !approx(m.Worth, 10, 1e-12) {
		t.Errorf("worth = %v, want 10 (only string 0 complete)", m.Worth)
	}
	if !(Metric{Worth: 20, Slackness: 0}).Better(Metric{Worth: 10, Slackness: 1}) {
		t.Error("higher worth must dominate slackness")
	}
	if !(Metric{Worth: 10, Slackness: 0.5}).Better(Metric{Worth: 10, Slackness: 0.2}) {
		t.Error("equal worth must fall through to slackness")
	}
	if (Metric{Worth: 10, Slackness: 0.2}).Better(Metric{Worth: 10, Slackness: 0.2}) {
		t.Error("a metric must not beat itself")
	}
}

func TestAssignUnassignPanics(t *testing.T) {
	sys := twoStringPipeline()
	a := New(sys)
	a.Assign(0, 0, 0)
	mustPanic(t, "double assign", func() { a.Assign(0, 0, 1) })
	mustPanic(t, "bad machine", func() { a.Assign(0, 1, 7) })
	mustPanic(t, "unassign unassigned", func() { a.Unassign(1, 0) })
	mustPanic(t, "tightness incomplete", func() { a.Tightness(0) })
	mustPanic(t, "comp time incomplete", func() { a.EstimatedCompTime(0, 1) })
	mustPanic(t, "tran time incomplete", func() { a.EstimatedTranTime(0, 0) })
	mustPanic(t, "short machine vector", func() { a.AssignString(1, []int{0}) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func randomSystem(rng *rand.Rand, machines, strings, maxApps int) *model.System {
	sys := model.NewUniformSystem(machines, 0)
	for j1 := 0; j1 < machines; j1++ {
		for j2 := 0; j2 < machines; j2++ {
			if j1 != j2 {
				sys.Bandwidth[j1][j2] = 1 + 9*rng.Float64()
			}
		}
	}
	for k := 0; k < strings; k++ {
		n := 1 + rng.Intn(maxApps)
		apps := make([]model.Application, n)
		for i := range apps {
			apps[i] = model.Application{
				NominalTime: make([]float64, machines),
				NominalUtil: make([]float64, machines),
				OutputKB:    10 + 90*rng.Float64(),
			}
			for j := 0; j < machines; j++ {
				apps[i].NominalTime[j] = 1 + 9*rng.Float64()
				apps[i].NominalUtil[j] = 0.1 + 0.9*rng.Float64()
			}
		}
		sys.AddString(model.AppString{
			Worth:      []float64{1, 10, 100}[rng.Intn(3)],
			Period:     20 + 20*rng.Float64(),
			MaxLatency: 40 + 60*rng.Float64(),
			Apps:       apps,
		})
	}
	return sys
}

// heatUp divides every period by cool and multiplies every output size by
// bulk: as randomSystem draws them, a handful of strings never fills a machine
// or a route, and stage 1 never decides. heatUp(sys, 3, 40) makes it decide
// often on both; heatUp(sys, 1, 400) on routes between machines with room.
func heatUp(sys *model.System, cool, bulk float64) {
	for k := range sys.Strings {
		s := &sys.Strings[k]
		s.Period /= cool
		for i := range s.Apps {
			s.Apps[i].OutputKB *= bulk
		}
	}
}

// Property: incremental utilization and roster bookkeeping never drifts from
// a from-scratch recomputation under random assign/unassign churn.
func TestIncrementalBookkeepingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		sys := randomSystem(rng, 2+rng.Intn(4), 1+rng.Intn(6), 5)
		a := New(sys)
		type slot struct{ k, i int }
		var assigned []slot
		for step := 0; step < 200; step++ {
			if len(assigned) > 0 && rng.Float64() < 0.4 {
				idx := rng.Intn(len(assigned))
				s := assigned[idx]
				a.Unassign(s.k, s.i)
				assigned[idx] = assigned[len(assigned)-1]
				assigned = assigned[:len(assigned)-1]
			} else {
				k := rng.Intn(len(sys.Strings))
				i := rng.Intn(len(sys.Strings[k].Apps))
				if a.Machine(k, i) != Unassigned {
					continue
				}
				a.Assign(k, i, rng.Intn(sys.Machines))
				assigned = append(assigned, slot{k, i})
			}
		}
		if err := a.checkInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// Property: the roster walks StringsOnMachine/StringsOnRoute report exactly
// the complete strings a scan of the whole catalogue finds on the resource —
// the O(K·apps) scan the repair and shed controllers used to carry — and
// StringsOverLimit exactly the union of those scans over the resources
// utilized past the limit, at the capacity limit the repair controllers walk
// at and at a shed target below it.
func TestStringsOnResourceMatchCatalogueScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	limits := []float64{CapacityLimit, 0.6}
	implicated := make([]int, len(limits))
	for trial := 0; trial < 30; trial++ {
		sys := randomSystem(rng, 2+rng.Intn(4), 1+rng.Intn(6), 5)
		switch trial % 3 { // or nothing is ever past capacity
		case 1:
			heatUp(sys, 3, 40)
		case 2:
			heatUp(sys, 1, 400)
		}
		a := New(sys)
		for step := 0; step < 200; step++ {
			applyRandomDelta(t, rng, a)
		}
		collect := func(walk func(f func(k int))) map[int]bool {
			set := map[int]bool{}
			walk(func(k int) { set[k] = true })
			return set
		}
		over := make([]map[int]bool, len(limits))
		for l := range over {
			over[l] = map[int]bool{}
		}
		union := func(util float64, on map[int]bool) {
			for l, limit := range limits {
				if util > limit {
					for k := range on {
						over[l][k] = true
					}
				}
			}
		}
		for j1 := 0; j1 < sys.Machines; j1++ {
			onMachine := map[int]bool{}
			for k := range sys.Strings {
				for i := range sys.Strings[k].Apps {
					if a.Complete(k) && a.Machine(k, i) == j1 {
						onMachine[k] = true
					}
				}
			}
			if got := collect(func(f func(int)) { a.StringsOnMachine(j1, f) }); !reflect.DeepEqual(got, onMachine) {
				t.Fatalf("trial %d machine %d: roster walk %v, catalogue scan %v", trial, j1, got, onMachine)
			}
			union(a.MachineUtilization(j1), onMachine)
			for j2 := 0; j2 < sys.Machines; j2++ {
				if j1 == j2 {
					continue
				}
				onRoute := map[int]bool{}
				for k := range sys.Strings {
					for i := 0; i+1 < len(sys.Strings[k].Apps); i++ {
						if a.Complete(k) && a.Machine(k, i) == j1 && a.Machine(k, i+1) == j2 {
							onRoute[k] = true
						}
					}
				}
				if got := collect(func(f func(int)) { a.StringsOnRoute(j1, j2, f) }); !reflect.DeepEqual(got, onRoute) {
					t.Fatalf("trial %d route (%d,%d): roster walk %v, catalogue scan %v", trial, j1, j2, got, onRoute)
				}
				union(a.RouteUtilization(j1, j2), onRoute)
			}
		}
		for l, limit := range limits {
			if got := collect(func(f func(int)) { a.StringsOverLimit(limit, f) }); !reflect.DeepEqual(got, over[l]) {
				t.Fatalf("trial %d limit %v: roster walk %v, catalogue scan %v", trial, limit, got, over[l])
			}
			implicated[l] += len(over[l])
		}
	}
	for l, limit := range limits {
		if implicated[l] == 0 {
			t.Fatalf("no trial had a complete string on a resource past %v; the walk was only held to the empty set", limit)
		}
	}
}

// Property: Clone yields an independent allocation with identical state.
func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sys := randomSystem(rng, 3, 4, 4)
	a := New(sys)
	for k := range sys.Strings {
		for i := range sys.Strings[k].Apps {
			a.Assign(k, i, rng.Intn(sys.Machines))
		}
	}
	cp := a.Clone()
	if cp.Slackness() != a.Slackness() || cp.NumComplete() != a.NumComplete() {
		t.Fatal("clone state differs")
	}
	cp.UnassignString(0)
	if !a.Complete(0) {
		t.Fatal("mutating the clone affected the original")
	}
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := cp.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: slackness is 1 minus the max utilization and never exceeds 1.
func TestSlacknessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		sys := randomSystem(rng, 2+rng.Intn(4), 1+rng.Intn(5), 5)
		a := New(sys)
		for k := range sys.Strings {
			for i := range sys.Strings[k].Apps {
				a.Assign(k, i, rng.Intn(sys.Machines))
			}
		}
		lam := a.Slackness()
		if lam > 1+1e-12 {
			t.Fatalf("slackness %v > 1", lam)
		}
		max := 0.0
		for j := 0; j < sys.Machines; j++ {
			max = math.Max(max, a.MachineUtilization(j))
			for j2 := 0; j2 < sys.Machines; j2++ {
				max = math.Max(max, a.RouteUtilization(j, j2))
			}
		}
		if !approx(lam, 1-max, 1e-9) {
			t.Fatalf("slackness %v != 1 - max util %v", lam, 1-max)
		}
	}
}

func TestEmptyAllocation(t *testing.T) {
	sys := twoStringPipeline()
	a := New(sys)
	if got := a.Slackness(); got != 1 {
		t.Errorf("empty slackness = %v, want 1", got)
	}
	if !a.TwoStageFeasible() {
		t.Error("empty allocation must be feasible")
	}
	if m := a.Metric(); m.Worth != 0 {
		t.Errorf("empty worth = %v, want 0", m.Worth)
	}
	if a.NumComplete() != 0 {
		t.Error("empty allocation reports complete strings")
	}
}

// Property (testing/quick): Metric.Better is a strict weak order — never
// reflexive, asymmetric, and consistent with the lexicographic definition.
func TestQuickMetricOrder(t *testing.T) {
	f := func(w1Raw, s1Raw, w2Raw, s2Raw uint16) bool {
		m1 := Metric{Worth: float64(w1Raw % 500), Slackness: float64(s1Raw%100) / 100}
		m2 := Metric{Worth: float64(w2Raw % 500), Slackness: float64(s2Raw%100) / 100}
		if m1.Better(m1) || m2.Better(m2) {
			return false
		}
		if m1.Better(m2) && m2.Better(m1) {
			return false
		}
		want := m1.Worth > m2.Worth || (m1.Worth == m2.Worth && m1.Slackness > m2.Slackness)
		return m1.Better(m2) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
