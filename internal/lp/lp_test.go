package lp

import (
	"flag"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/simplex"
	"repro/internal/transport"
	"repro/internal/workload"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func singleAppString(m int, worth, tSec, util, period float64) model.AppString {
	return model.AppString{Worth: worth, Period: period, MaxLatency: 1000,
		Apps: []model.Application{model.UniformApp(m, tSec, util, 10)}}
}

// One machine, one app with demand 0.5: the whole string maps, UB = worth.
func TestWorthBoundTrivial(t *testing.T) {
	sys := model.NewUniformSystem(1, 5)
	sys.AddString(singleAppString(1, 10, 5, 1, 10)) // demand 0.5
	for _, form := range []Formulation{Full, Relaxed} {
		b, err := UpperBound(sys, Config{Formulation: form, Objective: MaximizeWorth})
		if err != nil {
			t.Fatal(err)
		}
		if b.Status != simplex.Optimal || !approx(b.Objective, 10, 1e-7) {
			t.Errorf("%v: %v objective %v, want optimal 10", form, b.Status, b.Objective)
		}
		if !approx(b.StringFraction[0], 1, 1e-7) {
			t.Errorf("%v: fraction %v, want 1", form, b.StringFraction[0])
		}
	}
}

// Two strings, demand 0.6 each, equal worth 10, one machine: capacity allows
// total fraction 1/0.6, so UB = 10/0.6.
func TestWorthBoundFractional(t *testing.T) {
	sys := model.NewUniformSystem(1, 5)
	sys.AddString(singleAppString(1, 10, 6, 1, 10))
	sys.AddString(singleAppString(1, 10, 6, 1, 10))
	b, err := UpperBound(sys, Config{Formulation: Relaxed, Objective: MaximizeWorth})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(b.Objective, 10/0.6, 1e-6) {
		t.Errorf("objective %v, want %v", b.Objective, 10/0.6)
	}
}

// Worth ordering: the high-worth string is mapped fully before the low one.
func TestWorthBoundPrioritizesWorth(t *testing.T) {
	sys := model.NewUniformSystem(1, 5)
	sys.AddString(singleAppString(1, 100, 6, 1, 10)) // demand 0.6
	sys.AddString(singleAppString(1, 1, 6, 1, 10))   // demand 0.6
	b, err := UpperBound(sys, Config{Formulation: Full, Objective: MaximizeWorth})
	if err != nil {
		t.Fatal(err)
	}
	want := 100 + 1*(0.4/0.6)
	if !approx(b.Objective, want, 1e-6) {
		t.Errorf("objective %v, want %v", b.Objective, want)
	}
	if !approx(b.StringFraction[0], 1, 1e-6) {
		t.Errorf("high-worth fraction %v, want 1", b.StringFraction[0])
	}
}

// Slackness: one app of demand 0.5 split across two identical machines gives
// per-machine utilization 0.25, so Λ = 0.75.
func TestSlacknessBound(t *testing.T) {
	sys := model.NewUniformSystem(2, 5)
	sys.AddString(singleAppString(2, 10, 5, 1, 10))
	for _, form := range []Formulation{Full, Relaxed} {
		b, err := UpperBound(sys, Config{Formulation: form, Objective: MaximizeSlackness})
		if err != nil {
			t.Fatal(err)
		}
		if b.Status != simplex.Optimal || !approx(b.Objective, 0.75, 1e-6) {
			t.Errorf("%v: %v objective %v, want optimal 0.75", form, b.Status, b.Objective)
		}
		if !approx(b.StringFraction[0], 1, 1e-7) {
			t.Errorf("%v: complete mapping fraction %v, want 1", form, b.StringFraction[0])
		}
	}
}

// Slackness infeasibility: demand 2 cannot be completely mapped on capacity 1.
func TestSlacknessInfeasible(t *testing.T) {
	sys := model.NewUniformSystem(1, 5)
	sys.AddString(singleAppString(1, 10, 20, 1, 10)) // demand 2
	b, err := UpperBound(sys, Config{Formulation: Relaxed, Objective: MaximizeSlackness})
	if err != nil {
		t.Fatal(err)
	}
	if b.Status != simplex.Infeasible {
		t.Errorf("status %v, want infeasible", b.Status)
	}
}

// TestRouteCapacityBindsFullLP: pin consecutive applications to different
// machines (via extreme per-machine demands) over a starving route, so the
// full LP must pay route capacity that the relaxed LP ignores.
func TestRouteCapacityBindsFullLP(t *testing.T) {
	sys := model.NewUniformSystem(2, 5)
	app0 := model.Application{NominalTime: []float64{5, 5000}, NominalUtil: []float64{1, 1}, OutputKB: 2500}
	app1 := model.Application{NominalTime: []float64{5000, 5}, NominalUtil: []float64{1, 1}, OutputKB: 10}
	sys.AddString(model.AppString{Worth: 10, Period: 10, MaxLatency: 1000,
		Apps: []model.Application{app0, app1}})
	// Route demand per unit fraction: 8*2500/(1000*10s)/5Mbps = 0.4 util per
	// unit y. With f = 1 entirely cross-machine, route util would be 0.4 —
	// fine. Starve the route to make it bind:
	sys.Bandwidth[0][1] = 1
	sys.Bandwidth[1][0] = 1
	// Now per-unit route util = 2.0, so y <= 0.5 and f is pinched.
	full, err := UpperBound(sys, Config{Formulation: Full, Objective: MaximizeWorth})
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := UpperBound(sys, Config{Formulation: Relaxed, Objective: MaximizeWorth})
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.Objective < full.Objective-1e-7 {
		t.Fatalf("relaxed %v below full %v: not a relaxation", relaxed.Objective, full.Objective)
	}
	if full.Objective > 6 {
		t.Errorf("full objective %v, want <= ~5 (route capacity must bind)", full.Objective)
	}
	if relaxed.Objective < 9.9 {
		t.Errorf("relaxed objective %v, want ~10 (routes ignored)", relaxed.Objective)
	}
}

// TestLiteralObjective: the paper's printed objective weights strings by
// their application count; for single-application strings it coincides with
// the per-string objective.
func TestLiteralObjective(t *testing.T) {
	sys := model.NewUniformSystem(1, 5)
	sys.AddString(singleAppString(1, 10, 5, 1, 10))
	def, err := UpperBound(sys, Config{Objective: MaximizeWorth, Formulation: Relaxed})
	if err != nil {
		t.Fatal(err)
	}
	lit, err := UpperBound(sys, Config{Objective: MaximizeWorth, Formulation: Relaxed, LiteralObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(def.Objective, lit.Objective, 1e-9) {
		t.Errorf("single-app literal %v != default %v", lit.Objective, def.Objective)
	}
	// Two-app string: literal counts worth twice.
	sys2 := model.NewUniformSystem(1, 5)
	sys2.AddString(model.AppString{Worth: 10, Period: 100, MaxLatency: 1000,
		Apps: []model.Application{model.UniformApp(1, 5, 1, 10), model.UniformApp(1, 5, 1, 10)}})
	lit2, err := UpperBound(sys2, Config{Objective: MaximizeWorth, Formulation: Relaxed, LiteralObjective: true})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(lit2.Objective, 20, 1e-6) {
		t.Errorf("two-app literal objective %v, want 20", lit2.Objective)
	}
}

func TestVariableCap(t *testing.T) {
	sys := model.NewUniformSystem(4, 5)
	for k := 0; k < 3; k++ {
		sys.AddString(model.AppString{Worth: 1, Period: 50, MaxLatency: 500,
			Apps: []model.Application{
				model.UniformApp(4, 1, 0.5, 10),
				model.UniformApp(4, 1, 0.5, 10),
			}})
	}
	if _, err := UpperBound(sys, Config{Formulation: Full, Objective: MaximizeWorth, MaxVariables: 10}); err == nil {
		t.Error("variable cap not enforced")
	}
}

func TestInvalidSystemRejected(t *testing.T) {
	sys := model.NewUniformSystem(1, 5) // no strings -> still valid
	sys.Machines = 0
	if _, err := UpperBound(sys, Config{}); err == nil {
		t.Error("invalid system accepted")
	}
}

func TestStringers(t *testing.T) {
	if Full.String() == "" || Relaxed.String() == "" ||
		MaximizeWorth.String() == "" || MaximizeSlackness.String() == "" {
		t.Error("empty enum strings")
	}
}

func randomSmallSystem(rng *rand.Rand, machines, strings, maxApps int) *model.System {
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
			Period:     15 + 30*rng.Float64(),
			MaxLatency: 30 + 120*rng.Float64(),
			Apps:       apps,
		})
	}
	return sys
}

// TestUpperBoundDominates (experiment E9): on random instances, both UB
// formulations must dominate every heuristic's achieved worth, the relaxed
// bound must dominate the full bound, and the heuristics' slackness must stay
// below the slackness UB whenever they achieve a complete mapping.
func TestUpperBoundDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	cfg := heuristics.DefaultPSGConfig()
	cfg.PopulationSize = 25
	cfg.MaxIterations = 80
	cfg.StallLimit = 40
	cfg.Trials = 1
	for trial := 0; trial < 6; trial++ {
		sys := randomSmallSystem(rng, 2+rng.Intn(2), 2+rng.Intn(4), 3)
		full, err := UpperBound(sys, Config{Formulation: Full, Objective: MaximizeWorth})
		if err != nil {
			t.Fatal(err)
		}
		relaxed, err := UpperBound(sys, Config{Formulation: Relaxed, Objective: MaximizeWorth})
		if err != nil {
			t.Fatal(err)
		}
		if full.Status != simplex.Optimal || relaxed.Status != simplex.Optimal {
			t.Fatalf("trial %d: LP statuses %v/%v", trial, full.Status, relaxed.Status)
		}
		if relaxed.Objective < full.Objective-1e-6 {
			t.Fatalf("trial %d: relaxed %v < full %v", trial, relaxed.Objective, full.Objective)
		}
		slackUB, err := UpperBound(sys, Config{Formulation: Full, Objective: MaximizeSlackness})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range heuristics.Names {
			cfg.Seed = int64(trial * 31)
			r := heuristics.Run(name, sys, cfg)
			if r.Metric.Worth > full.Objective+1e-6 {
				t.Errorf("trial %d: %s worth %v exceeds full UB %v", trial, name, r.Metric.Worth, full.Objective)
			}
			if r.Metric.Worth > relaxed.Objective+1e-6 {
				t.Errorf("trial %d: %s worth %v exceeds relaxed UB %v", trial, name, r.Metric.Worth, relaxed.Objective)
			}
			if r.NumMapped == len(sys.Strings) && slackUB.Status == simplex.Optimal {
				if r.Metric.Slackness > slackUB.Objective+1e-6 {
					t.Errorf("trial %d: %s slackness %v exceeds UB %v", trial, name, r.Metric.Slackness, slackUB.Objective)
				}
			}
		}
	}
}

// TestFullSolutionRealizable: for every transfer in a full-LP optimum, a
// transportation plan matching the consecutive marginals exists, proving
// constraint families (d)/(e) are honored by the solution we extract.
func TestFullSolutionRealizable(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sys := randomSmallSystem(rng, 3, 3, 3)
	b, err := UpperBound(sys, Config{Formulation: Full, Objective: MaximizeWorth})
	if err != nil {
		t.Fatal(err)
	}
	if b.Status != simplex.Optimal {
		t.Fatalf("status %v", b.Status)
	}
	for k := range sys.Strings {
		for i := 0; i+1 < len(sys.Strings[k].Apps); i++ {
			y, err := transport.Plan(b.X[k][i], b.X[k][i+1])
			if err != nil {
				t.Fatalf("string %d transfer %d: %v", k, i, err)
			}
			if dev := transport.Check(y, b.X[k][i], b.X[k][i+1]); dev > 1e-6 {
				t.Fatalf("string %d transfer %d: plan deviates by %v", k, i, dev)
			}
		}
	}
}

// certified solves the LP b built and fails t unless the optimum carries its
// certificate (simplex.Problem.Certify); it returns the solution mapped back
// onto the system and the certificate's worst term.
func certified(t *testing.T, b *builder) (*Bound, float64) {
	t.Helper()
	sol, err := b.prob.Solve()
	if err != nil {
		t.Fatal(err)
	}
	c := b.prob.Certify(sol)
	if c > 1e-9 {
		t.Fatalf("%d × %d LP: %v, certificate term %g", b.prob.NumRows(), b.prob.NumCols(), sol.Status, c)
	}
	return b.bound(sol), c
}

// TestFullLPCertified: the full formulation of a small system, both
// objectives, solves to a certified optimum, and UpperBound reports exactly
// that optimum.
func TestFullLPCertified(t *testing.T) {
	sys := randomSmallSystem(rand.New(rand.NewSource(40)), 2, 3, 2)
	for _, obj := range []Objective{MaximizeWorth, MaximizeSlackness} {
		cfg := Config{Formulation: Full, Objective: obj}
		b, err := build(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := certified(t, b)
		got, err := UpperBound(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != simplex.Optimal || got.Objective != want.Objective {
			t.Errorf("%v: UpperBound %v %v, certified optimum %v", obj, got.Status, got.Objective, want.Objective)
		}
	}
}

// TestServedBoundsCertified: the relaxed bound LPs the benchmark ships serve,
// at full size, solve to certified optima: the paper ship's worth bound
// (scenario 1, 871 rows × 10 308 columns) and the fleet ship's worth and
// slackness bounds (FleetConfig(128, 2), 569 × 56 448, and λ under
// slackness). The fleet slackness solve is the slow one, about 1.4 s.
func TestServedBoundsCertified(t *testing.T) {
	paper := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 1)
	fleet := workload.MustGenerate(workload.FleetConfig(128, 2), 1)
	for _, c := range []struct {
		name string
		sys  *model.System
		obj  Objective
	}{
		{"paper worth", paper, MaximizeWorth},
		{"fleet worth", fleet, MaximizeWorth},
		{"fleet slackness", fleet, MaximizeSlackness},
	} {
		b, err := build(c.sys, Config{Formulation: Relaxed, Objective: c.obj})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		bound, term := certified(t, b)
		t.Logf("%s: %d × %d, bound %.6f, %d pivots, %v, worst term %.1e", c.name, bound.Constraints, bound.Variables,
			bound.Objective, bound.Iterations, time.Since(start).Round(time.Millisecond), term)
	}
}

var fullStrings = flag.Int("lp.full-strings", 0,
	"certify the full formulation of scenario 3 at this many strings, both objectives (0 skips TestFullBoundCertifiedAtScale)")

// TestFullBoundCertifiedAtScale: the full formulation of scenario 3 at
// -lp.full-strings strings solves to a certified optimum under both
// objectives. At 30 strings (3 399 rows × 20 484 columns) a solve takes about
// 30 s, too long for every push, so CI runs it nightly.
func TestFullBoundCertifiedAtScale(t *testing.T) {
	if *fullStrings <= 0 {
		t.Skip("set -lp.full-strings")
	}
	cfg := workload.ScenarioConfig(workload.LightlyLoaded)
	cfg.Strings = *fullStrings
	sys := workload.MustGenerate(cfg, 1)
	for _, obj := range []Objective{MaximizeWorth, MaximizeSlackness} {
		b, err := build(sys, Config{Formulation: Full, Objective: obj})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		bound, term := certified(t, b)
		t.Logf("%v: %d × %d, bound %.6f, %d pivots, %v, worst term %.1e", obj, bound.Constraints, bound.Variables,
			bound.Objective, bound.Iterations, time.Since(start).Round(time.Millisecond), term)
	}
}

// TestFleetScaleBound: the relaxed worth bound of an M=256 fleet ship (1 100
// rows, 220 000 columns) is a certified optimum and dominates what MWF
// actually maps. 6.4 s with a dense basis inverse and full pricing, 0.12 s
// without, 0.08 s from the crash basis.
func TestFleetScaleBound(t *testing.T) {
	if testing.Short() {
		t.Skip("M=256 LP")
	}
	sys := workload.MustGenerate(workload.FleetConfig(256, 2), 1)
	b, err := build(sys, Config{Formulation: Relaxed, Objective: MaximizeWorth})
	if err != nil {
		t.Fatal(err)
	}
	bound, _ := certified(t, b)
	if mwf := heuristics.MWF(sys).Metric.Worth; bound.Objective < mwf {
		t.Errorf("bound %v below MWF's worth %v", bound.Objective, mwf)
	}
}

// TestRelaxedWorthPivotCeiling holds the cold relaxed worth solve of both
// benchmark ships to its measured pivot count plus a tenth. The crash basis
// (simplex standard.go) is what keeps them there: without it the solve runs a
// phase 1 and reads 4 148 pivots on scenario 1 and 1 337 on the fleet ship,
// so a change that loses the crash fails here and not only in a benchmark.
func TestRelaxedWorthPivotCeiling(t *testing.T) {
	for _, c := range []struct {
		name     string
		cfg      workload.Config
		measured int
	}{
		{"scenario 1", workload.ScenarioConfig(workload.HighlyLoaded), 1181},
		{"FleetConfig(128,2)", workload.FleetConfig(128, 2), 323},
	} {
		b, err := UpperBound(workload.MustGenerate(c.cfg, 1), Config{Formulation: Relaxed, Objective: MaximizeWorth})
		if err != nil || b.Status != simplex.Optimal {
			t.Fatalf("%s: %v %v", c.name, err, b)
		}
		if ceiling := c.measured + c.measured/10; b.Iterations > ceiling {
			t.Errorf("%s: %d pivots, ceiling %d (measured %d)", c.name, b.Iterations, ceiling, c.measured)
		}
	}
}

// TestMachineShadowPrices: on a single saturated machine, the shadow price
// equals the marginal string's worth density (worth per unit of capacity).
func TestMachineShadowPrices(t *testing.T) {
	sys := model.NewUniformSystem(1, 5)
	sys.AddString(singleAppString(1, 100, 6, 1, 10)) // demand 0.6, density 166.7
	sys.AddString(singleAppString(1, 1, 6, 1, 10))   // demand 0.6, density 1.667
	b, err := UpperBound(sys, Config{Formulation: Relaxed, Objective: MaximizeWorth})
	if err != nil {
		t.Fatal(err)
	}
	if b.MachineShadowPrice == nil {
		t.Fatal("no shadow prices from the simplex path")
	}
	// Capacity binds; the marginal (partially mapped) string is the
	// low-worth one: d(worth)/d(capacity) = 1/0.6.
	if !approx(b.MachineShadowPrice[0], 1/0.6, 1e-6) {
		t.Errorf("shadow price %v, want %v", b.MachineShadowPrice[0], 1/0.6)
	}
	// Unsaturated machines have zero shadow price.
	sys2 := model.NewUniformSystem(2, 5)
	sys2.AddString(singleAppString(2, 10, 1, 0.1, 100)) // tiny demand
	b2, err := UpperBound(sys2, Config{Formulation: Relaxed, Objective: MaximizeWorth})
	if err != nil {
		t.Fatal(err)
	}
	for j, sp := range b2.MachineShadowPrice {
		if !approx(sp, 0, 1e-7) {
			t.Errorf("machine %d shadow price %v, want 0 (slack capacity)", j, sp)
		}
	}
}
