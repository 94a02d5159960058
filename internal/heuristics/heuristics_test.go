package heuristics

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/feasibility"
	"repro/internal/model"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// balancedPair: two single-application strings of identical heavy demand on a
// two-machine system. The IMR must spread them across machines.
func TestIMRBalancesLoad(t *testing.T) {
	sys := model.NewUniformSystem(2, 5)
	for k := 0; k < 2; k++ {
		sys.AddString(model.AppString{Worth: 10, Period: 10, MaxLatency: 100,
			Apps: []model.Application{model.UniformApp(2, 5, 1, 10)}})
	}
	a := feasibility.New(sys)
	MapStringIMR(a, 0)
	MapStringIMR(a, 1)
	if a.Machine(0, 0) == a.Machine(1, 0) {
		t.Errorf("IMR stacked both heavy applications on machine %d", a.Machine(0, 0))
	}
}

// TestIMRPrefersFasterMachine: a heterogeneous app should land on the machine
// where its utilization demand is lowest when both are empty.
func TestIMRPrefersFasterMachine(t *testing.T) {
	sys := model.NewUniformSystem(2, 5)
	sys.AddString(model.AppString{Worth: 10, Period: 10, MaxLatency: 100,
		Apps: []model.Application{{
			NominalTime: []float64{8, 2},
			NominalUtil: []float64{1, 1},
			OutputKB:    10,
		}}})
	a := feasibility.New(sys)
	MapStringIMR(a, 0)
	if got := a.Machine(0, 0); got != 1 {
		t.Errorf("IMR chose machine %d, want 1 (demand 0.2 vs 0.8)", got)
	}
}

// TestIMRColocatesHeavyTransfers: with a starving network, consecutive
// applications should co-locate (intra-machine routes are free).
func TestIMRColocatesHeavyTransfers(t *testing.T) {
	sys := model.NewUniformSystem(4, 0.001) // nearly no bandwidth
	for j1 := range sys.Bandwidth {
		for j2 := range sys.Bandwidth[j1] {
			if j1 != j2 {
				sys.Bandwidth[j1][j2] = 0.001
			}
		}
	}
	apps := make([]model.Application, 5)
	for i := range apps {
		apps[i] = model.UniformApp(4, 2, 0.5, 1000) // 1 MB outputs
	}
	sys.AddString(model.AppString{Worth: 10, Period: 20, MaxLatency: 1000, Apps: apps})
	a := feasibility.New(sys)
	MapStringIMR(a, 0)
	first := a.Machine(0, 0)
	for i := 1; i < 5; i++ {
		if a.Machine(0, i) != first {
			t.Fatalf("application %d on machine %d, want co-located on %d", i, a.Machine(0, i), first)
		}
	}
}

// TestIMRAssignsEveryApplication over random strings, including the
// contiguous-region extension in both directions: the placement is the slice
// oracle's, and a placement that fails, at the first scan or part-way, leaves
// the string unassigned.
// The last two trials are longer than the 16 applications the IMR keeps on the
// stack (generated strings never are; a system loaded from a file may be).
func TestIMRAssignsEveryApplication(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 52; trial++ {
		sys := model.NewUniformSystem(1+rng.Intn(6), 1+9*rng.Float64())
		n := 1 + rng.Intn(10)
		if trial >= 50 {
			n = 17 + 23*(trial-50)
		}
		apps := make([]model.Application, n)
		for i := range apps {
			apps[i] = model.Application{
				NominalTime: make([]float64, sys.Machines),
				NominalUtil: make([]float64, sys.Machines),
				OutputKB:    10 + 90*rng.Float64(),
			}
			for j := 0; j < sys.Machines; j++ {
				apps[i].NominalTime[j] = 1 + 9*rng.Float64()
				apps[i].NominalUtil[j] = 0.1 + 0.9*rng.Float64()
			}
		}
		sys.AddString(model.AppString{Worth: 1, Period: 30, MaxLatency: 200, Apps: apps})
		a := feasibility.New(sys)
		MapStringIMR(a, 0)
		if !a.Complete(0) {
			t.Fatalf("trial %d: IMR left string incomplete", trial)
		}
		for i := 0; i < n; i++ {
			if m := a.Machine(0, i); m < 0 || m >= sys.Machines {
				t.Fatalf("trial %d: application %d on invalid machine %d", trial, i, m)
			}
		}
		if got, want := a.StringMachines(0), sliceIMR(feasibility.New(sys), 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: IMR placed %v, slice oracle %v", trial, got, want)
		}
		// A decoder bank's tables — a precomputed intensity row and a scan
		// order attached to the allocation — place exactly as the routine
		// that averages for itself and scans in index order.
		b, tables := feasibility.New(sys), newSearchTables(sys)
		b.AttachScanOrder(tables.order)
		tables.place(b, 0)
		if got, want := b.StringMachines(0), a.StringMachines(0); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: IMR over a search's tables placed %v, MapStringIMR %v", trial, got, want)
		}
		// A mask that allows no machine fails the first scan; one that closes
		// every machine once application 0 or n-1 is placed fails the
		// extension that follows (a single application has none). Either way
		// the string is left fully unassigned.
		masks := map[string]func(int) bool{"closed": func(int) bool { return false }}
		if n > 1 {
			masks["closing part-way"] = func(int) bool {
				return a.Machine(0, 0) == feasibility.Unassigned && a.Machine(0, n-1) == feasibility.Unassigned
			}
		}
		for name, mask := range masks {
			a.UnassignString(0)
			if MapStringIMRMasked(a, 0, mask, nil) {
				t.Fatalf("trial %d: placement succeeded under the %s mask", trial, name)
			}
			for i := 0; i < n; i++ {
				if j := a.Machine(0, i); j != feasibility.Unassigned {
					t.Fatalf("trial %d: placement failed by the %s mask left application %d on machine %d", trial, name, i, j)
				}
			}
		}
	}
}

// sliceIMR is the IMR written over an intensity slice and an assigned mask —
// the oracle for MapStringIMR's stack-array form. It returns the placement.
func sliceIMR(a *feasibility.Allocation, k int) []int {
	sys := a.System()
	n := len(sys.Strings[k].Apps)
	intensity := make([]float64, n)
	for i := range intensity {
		intensity[i] = sys.AvgWork(k, i)
	}
	assigned := make([]bool, n)
	mostIntensive := func() int {
		best, bestVal := -1, -1.0
		for i := range intensity {
			if !assigned[i] && intensity[i] > bestVal {
				best, bestVal = i, intensity[i]
			}
		}
		return best
	}
	place := func(i int, routeIf func(j int) float64) {
		bestJ, bestVal := -1, 0.0
		for j := 0; j < sys.Machines; j++ {
			if v := math.Max(a.MachineUtilizationIf(j, k, i), routeIf(j)); bestJ < 0 || v < bestVal {
				bestJ, bestVal = j, v
			}
		}
		a.Assign(k, i, bestJ)
		assigned[i] = true
	}
	first := mostIntensive()
	place(first, func(int) float64 { return 0 })
	for iLeft, iRight := first, first; iRight-iLeft+1 < n; {
		target := mostIntensive()
		for target > iRight {
			iRight++
			prev := a.Machine(k, iRight-1)
			place(iRight, func(j int) float64 { return a.RouteUtilizationIf(prev, j, k, iRight-1) })
		}
		for target < iLeft {
			iLeft--
			next := a.Machine(k, iLeft+1)
			place(iLeft, func(j int) float64 { return a.RouteUtilizationIf(j, next, k, iLeft) })
		}
	}
	return a.StringMachines(k)
}

// TestIMRStartsFromMostIntensive: the most computationally intensive
// application (by machine-averaged work) is placed first, on the least
// utilized machine.
func TestIMRStartsFromMostIntensive(t *testing.T) {
	sys := model.NewUniformSystem(3, 5)
	// Preload machine 0 and 1 so only machine 2 is empty.
	sys.AddString(model.AppString{Worth: 1, Period: 10, MaxLatency: 100,
		Apps: []model.Application{model.UniformApp(3, 4, 1, 10)}})
	sys.AddString(model.AppString{Worth: 1, Period: 10, MaxLatency: 100,
		Apps: []model.Application{model.UniformApp(3, 3, 1, 10)}})
	// Target string: middle application is the most intensive.
	sys.AddString(model.AppString{Worth: 1, Period: 10, MaxLatency: 100,
		Apps: []model.Application{
			model.UniformApp(3, 1, 0.5, 1),
			model.UniformApp(3, 9, 1, 1),
			model.UniformApp(3, 1, 0.5, 1),
		}})
	a := feasibility.New(sys)
	a.Assign(0, 0, 0)
	a.Assign(1, 0, 1)
	MapStringIMR(a, 2)
	if got := a.Machine(2, 1); got != 2 {
		t.Errorf("most intensive application on machine %d, want the empty machine 2", got)
	}
}

func TestOrders(t *testing.T) {
	sys := model.NewUniformSystem(2, 5)
	add := func(worth, period, lmax, tSec float64) {
		sys.AddString(model.AppString{Worth: worth, Period: period, MaxLatency: lmax,
			Apps: []model.Application{model.UniformApp(2, tSec, 0.5, 10)}})
	}
	add(10, 10, 100, 5) // k=0: medium worth, tightness 0.05
	add(100, 10, 10, 5) // k=1: high worth, tightness 0.5
	add(1, 10, 1.9, 1)  // k=2: low worth, tightness 1/1.9 ~ 0.526
	mwf := MWFOrder(sys)
	if mwf[0] != 1 || mwf[1] != 0 || mwf[2] != 2 {
		t.Errorf("MWFOrder = %v, want [1 0 2]", mwf)
	}
	tf := TFOrder(sys)
	if tf[0] != 2 || tf[1] != 1 || tf[2] != 0 {
		t.Errorf("TFOrder = %v, want [2 1 0]", tf)
	}
}

// easySystem: everything fits comfortably.
func easySystem() *model.System {
	sys := model.NewUniformSystem(3, 10)
	for k := 0; k < 4; k++ {
		sys.AddString(model.AppString{Worth: []float64{1, 10, 100, 10}[k], Period: 50, MaxLatency: 500,
			Apps: []model.Application{
				model.UniformApp(3, 2, 0.4, 20),
				model.UniformApp(3, 3, 0.4, 20),
			}})
	}
	return sys
}

func TestMWFMapsEverythingWhenEasy(t *testing.T) {
	r := MWF(easySystem())
	if r.NumMapped != 4 {
		t.Fatalf("mapped %d of 4 strings; violations possible: %+v", r.NumMapped, r.Alloc.Violations())
	}
	if !approx(r.Metric.Worth, 121, 1e-9) {
		t.Errorf("worth = %v, want 121", r.Metric.Worth)
	}
	if r.Name != "MWF" || r.Evaluations != 1 {
		t.Errorf("result metadata wrong: %+v", r)
	}
	if !r.Alloc.TwoStageFeasible() {
		t.Error("final mapping must be feasible")
	}
}

// TestMapSequenceStopsAtFirstFailure: the sequential mapper must terminate at
// the first infeasible string (paper semantics), not skip it.
func TestMapSequenceStopsAtFirstFailure(t *testing.T) {
	sys := model.NewUniformSystem(2, 10)
	ok := model.AppString{Worth: 10, Period: 50, MaxLatency: 500,
		Apps: []model.Application{model.UniformApp(2, 2, 0.4, 20)}}
	bad := model.AppString{Worth: 10, Period: 1, MaxLatency: 500, // comp 8 s > period 1 s: infeasible alone
		Apps: []model.Application{model.UniformApp(2, 8, 0.9, 20)}}
	sys.AddString(ok)  // k=0
	sys.AddString(bad) // k=1
	sys.AddString(ok)  // k=2
	r := MapSequence(sys, []int{0, 1, 2})
	if !r.Alloc.Complete(0) || r.Alloc.Complete(1) || r.Alloc.Complete(2) {
		t.Fatal("want only string 0 mapped (terminate at first failure)")
	}
	if r.NumMapped != 1 {
		t.Errorf("NumMapped = %d, want 1", r.NumMapped)
	}
	// The failed string must be fully rolled back.
	for i := range sys.Strings[1].Apps {
		if r.Alloc.Machine(1, i) != feasibility.Unassigned {
			t.Error("failed string not rolled back")
		}
	}
	// A permutation pushing the bad string last maps both good strings.
	r2 := MapSequence(sys, []int{0, 2, 1})
	if r2.NumMapped != 2 {
		t.Errorf("reordered NumMapped = %d, want 2", r2.NumMapped)
	}
}

func testPSGConfig(seed int64) PSGConfig {
	cfg := DefaultPSGConfig()
	cfg.PopulationSize = 30
	cfg.MaxIterations = 150
	cfg.StallLimit = 60
	cfg.Trials = 1
	cfg.Seed = seed
	return cfg
}

// TestSeededPSGDominatesOneShotHeuristics: because the MWF and TF orderings
// seed the initial population and GENITOR is elitist, Seeded PSG can never do
// worse than either one-shot heuristic. This must hold on arbitrary systems.
func TestSeededPSGDominatesOneShotHeuristics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		sys := randomTestSystem(rng, 3, 8)
		mwf, tf := MWF(sys), TF(sys)
		sp := Run("SeededPSG", sys, testPSGConfig(int64(trial)))
		for _, base := range []*Result{mwf, tf} {
			if base.Metric.Better(sp.Metric) {
				t.Errorf("trial %d: %s %+v beats SeededPSG %+v", trial, base.Name, base.Metric, sp.Metric)
			}
		}
		if sp.Name != "SeededPSG" {
			t.Errorf("name = %q", sp.Name)
		}
	}
}

// TestPSGFindsBetterOrdering: construct a system where the natural orders are
// suboptimal — a poison string that blocks the sequence when mapped early —
// and check PSG recovers more worth than MWF.
func TestPSGFindsBetterOrdering(t *testing.T) {
	sys := model.NewUniformSystem(2, 10)
	// Poison: highest worth but infeasible alone, so MWF maps nothing.
	sys.AddString(model.AppString{Worth: 100, Period: 1, MaxLatency: 1,
		Apps: []model.Application{model.UniformApp(2, 9, 0.9, 10)}})
	for k := 0; k < 5; k++ {
		sys.AddString(model.AppString{Worth: 10, Period: 50, MaxLatency: 500,
			Apps: []model.Application{model.UniformApp(2, 2, 0.3, 10)}})
	}
	mwf := MWF(sys)
	if mwf.Metric.Worth != 0 {
		t.Fatalf("test premise broken: MWF worth = %v, want 0", mwf.Metric.Worth)
	}
	psg := Run("PSG", sys, testPSGConfig(9))
	if psg.Metric.Worth != 50 {
		t.Errorf("PSG worth = %v, want 50 (all five feasible strings)", psg.Metric.Worth)
	}
	if psg.Iterations == 0 || psg.Evaluations == 0 || psg.StopReason == "" {
		t.Errorf("PSG stats not recorded: %+v", psg)
	}
}

func TestRunDispatch(t *testing.T) {
	sys := easySystem()
	cfg := testPSGConfig(1)
	for _, name := range Names {
		r := Run(name, sys, cfg)
		if r.Name != name {
			t.Errorf("Run(%q) produced %q", name, r.Name)
		}
		if r.Metric.Worth != 121 {
			t.Errorf("%s worth = %v, want 121 on the easy system", name, r.Metric.Worth)
		}
	}
	mustPanic(t, func() { Run("nope", sys, cfg) })
}

// TestRunContextMatchesRun: every heuristic started through RunContext under
// a live context returns what Run returns — metric, search counters and the
// allocation's state digest — with no checkpoint and no error.
func TestRunContextMatchesRun(t *testing.T) {
	sys := randomTestSystem(rand.New(rand.NewSource(41)), 3, 8)
	cfg := testPSGConfig(23)
	for _, name := range AllNames {
		want := Run(name, sys, cfg)
		got, scp, err := RunContext(context.Background(), name, sys, cfg)
		if err != nil || scp != nil {
			t.Fatalf("%s: err %v, checkpoint %v", name, err, scp)
		}
		if got.Name != name || got.Metric != want.Metric || got.Iterations != want.Iterations ||
			got.Evaluations != want.Evaluations {
			t.Errorf("%s: RunContext {%s %+v %d it %d ev}, Run {%s %+v %d it %d ev}", name,
				got.Name, got.Metric, got.Iterations, got.Evaluations,
				want.Name, want.Metric, want.Iterations, want.Evaluations)
		}
		if g, w := feasibility.StateDigest(got.Alloc), feasibility.StateDigest(want.Alloc); g != w {
			t.Errorf("%s: state digest %s, Run's %s", name, g, w)
		}
	}
}

// TestRunContextUnknownName: a name outside AllNames is an error that lists
// the valid names, not a panic (Run, for names the caller knows, panics:
// TestRunDispatch).
func TestRunContextUnknownName(t *testing.T) {
	r, scp, err := RunContext(context.Background(), "Bogus", easySystem(), testPSGConfig(1))
	if err == nil || r != nil || scp != nil {
		t.Fatalf("unknown name: r %v, checkpoint %v, err %v", r, scp, err)
	}
	if msg := err.Error(); !strings.Contains(msg, `"Bogus"`) || !strings.Contains(msg, fmt.Sprint(AllNames)) {
		t.Errorf("error %q does not name the heuristic and AllNames", msg)
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// TestPSGTrials: more trials never hurt (best-of is monotone in trials with
// nested seeds... trials use distinct seeds, so just check it runs and picks
// a best).
func TestPSGTrials(t *testing.T) {
	sys := easySystem()
	cfg := testPSGConfig(5)
	cfg.Trials = 3
	r := Run("PSG", sys, cfg)
	if r.Metric.Worth != 121 {
		t.Errorf("worth = %v, want 121", r.Metric.Worth)
	}
	cfg.Trials = 0 // must be clamped to 1
	r = Run("PSG", sys, cfg)
	if r.Metric.Worth != 121 {
		t.Errorf("worth with clamped trials = %v, want 121", r.Metric.Worth)
	}
}

// TestHeuristicResultsAreFeasible: every heuristic's final mapping passes the
// two-stage analysis on random systems, and worth equals the sum of mapped
// strings' worths.
func TestHeuristicResultsAreFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cfg := testPSGConfig(3)
	for trial := 0; trial < 4; trial++ {
		sys := randomTestSystem(rng, 3, 10)
		for _, name := range Names {
			r := Run(name, sys, cfg)
			if !r.Alloc.TwoStageFeasible() {
				t.Errorf("trial %d: %s produced an infeasible mapping", trial, name)
			}
			if got := r.Alloc.NumComplete(); got != r.NumMapped {
				t.Errorf("trial %d: %s reports %d mapped, allocation holds %d", trial, name, r.NumMapped, got)
			}
			worth := 0.0
			for k := range sys.Strings {
				if r.Alloc.Complete(k) {
					worth += sys.Strings[k].Worth
				}
			}
			if !approx(worth, r.Metric.Worth, 1e-9) {
				t.Errorf("trial %d: %s worth %v != mapped sum %v", trial, name, r.Metric.Worth, worth)
			}
		}
	}
}

func randomTestSystem(rng *rand.Rand, machines, strings int) *model.System {
	sys := model.NewUniformSystem(machines, 0)
	for j1 := 0; j1 < machines; j1++ {
		for j2 := 0; j2 < machines; j2++ {
			if j1 != j2 {
				sys.Bandwidth[j1][j2] = 1 + 9*rng.Float64()
			}
		}
	}
	for k := 0; k < strings; k++ {
		n := 1 + rng.Intn(5)
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
			Period:     15 + 30*rng.Float64(),
			MaxLatency: 20 + 80*rng.Float64(),
			Apps:       apps,
		})
	}
	return sys
}
