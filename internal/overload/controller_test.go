package overload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/workload"
)

// oneMachineFixture builds a single-machine system of single-app strings with
// the given worths and utilization demands (Work/Period), mapped on machine 0.
func oneMachineFixture(worths, demands []float64) (*model.System, *feasibility.Allocation) {
	sys := model.NewUniformSystem(1, 5)
	for i, w := range worths {
		sys.AddString(model.AppString{Worth: w, Period: 10, MaxLatency: 100,
			Apps: []model.Application{model.UniformApp(1, demands[i]*10, 1, 0)}})
	}
	a := feasibility.New(sys)
	for k := range worths {
		a.Assign(k, 0, 0)
	}
	return sys, a
}

// TestControllerShedsLowestWorthPerUtilFirst: a global 2x step surge drives a
// single machine to 1.8 demand; the controller must shed the two low-worth
// strings (lowest worth-per-utilization, lowest ID first), keep the valuable
// one, and re-admit everything once the surge subsides.
func TestControllerShedsLowestWorthPerUtilFirst(t *testing.T) {
	_, a := oneMachineFixture([]float64{100, 10, 10}, []float64{0.3, 0.3, 0.3})
	sc := &Scenario{Events: []Event{{Kind: Step, At: 10, Duration: 10, Factor: 2}}}
	res, err := Run(a, sc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 2 || res.Readmitted != 2 {
		t.Fatalf("shed %d, readmitted %d, want 2/2", res.Shed, res.Readmitted)
	}
	var sheds, readmits []Action
	for _, act := range res.Actions {
		switch act.Kind {
		case Shed:
			sheds = append(sheds, act)
		case Readmitted:
			readmits = append(readmits, act)
		}
		if act.StringID == 0 {
			t.Fatalf("the highest worth-per-utilization string was acted on: %+v", act)
		}
	}
	if sheds[0].StringID != 1 || sheds[1].StringID != 2 {
		t.Errorf("shed order %+v, want string 1 then 2 (lowest worth density, lowest ID first)", sheds)
	}
	for _, s := range sheds {
		if s.Time != 10 || s.Reason != "overload" {
			t.Errorf("shed action %+v, want at t=10 with reason overload", s)
		}
	}
	// Re-admission must wait for the surge to end at t=20: under the surge
	// either shed string would overload the machine again.
	for _, r := range readmits {
		if r.Time != 20 || r.Reason != "slack-recovered" {
			t.Errorf("readmit action %+v, want at t=20 with reason slack-recovered", r)
		}
	}
	if res.Retained != 1 {
		t.Errorf("retained %v, want 1 (everything re-admitted)", res.Retained)
	}
	if want := 100.0 / 120.0; math.Abs(res.MinRetained-want) > 1e-12 {
		t.Errorf("min retained %v, want %v", res.MinRetained, want)
	}
	if !res.Feasible {
		t.Error("final allocation infeasible")
	}
	if math.Abs(res.SlacknessAfter-0.1) > 1e-9 {
		t.Errorf("final slackness %v, want 0.1", res.SlacknessAfter)
	}
	// The carried allocation was over capacity for exactly one control tick
	// (the surge onset); afterwards the degraded allocation rides it out.
	if res.TimeOverCapacity != 1 {
		t.Errorf("time over capacity %v, want 1", res.TimeOverCapacity)
	}
	over := 0
	for _, s := range res.Samples {
		if s.Overloaded {
			over++
			if s.Time != 10 {
				t.Errorf("overloaded sample at t=%v, want only at surge onset", s.Time)
			}
		}
	}
	if over != 1 {
		t.Errorf("%d overloaded samples, want 1", over)
	}
}

// TestControllerHysteresisBand: after a shed, slackness recovering into the
// band between ShedBelow and ReadmitAbove must NOT re-admit — even though the
// shed string would fit — until Λ clears the upper threshold.
func TestControllerHysteresisBand(t *testing.T) {
	_, a := oneMachineFixture([]float64{100, 1}, []float64{0.65, 0.05})
	sc := &Scenario{Events: []Event{
		// Surge string 1 to 0.40 demand: total 1.05, Λ < ShedBelow → shed it.
		{Kind: Step, At: 10, Duration: 5, Factor: 8, Strings: []int{1}},
		// Then hold string 0 at 0.78 demand: Λ = 0.22 sits inside the
		// hysteresis band. String 1 (back at 0.05 demand) WOULD fit —
		// admitting it leaves Λ = 0.17 ≥ ShedBelow — so only the upper
		// threshold keeps it out.
		{Kind: Step, At: 15, Duration: 10, Factor: 1.2, Strings: []int{0}},
	}}
	res, err := Run(a, sc, Config{ShedBelow: 0.05, ReadmitAbove: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	want := []Action{
		{Time: 10, StringID: 1, Kind: Shed, Reason: "overload"},
		{Time: 25, StringID: 1, Kind: Readmitted, Reason: "slack-recovered"},
	}
	if !reflect.DeepEqual(res.Actions, want) {
		t.Fatalf("actions %+v\nwant %+v (no re-admission inside the hysteresis band)", res.Actions, want)
	}
	for _, s := range res.Samples {
		if s.Time >= 15 && s.Time < 25 && s.Mapped != 1 {
			t.Errorf("t=%v: %d strings mapped inside the band, want 1", s.Time, s.Mapped)
		}
	}
	if res.Retained != 1 || !res.Feasible {
		t.Errorf("retained %v, feasible %v, want 1/true", res.Retained, res.Feasible)
	}
}

// TestControllerBoundedReadmission: the per-tick re-admission bound spreads
// recovery over several control ticks instead of re-admitting everything at
// once. A 2x surge sheds five of seven low-density strings, more than one
// tick may take back.
func TestControllerBoundedReadmission(t *testing.T) {
	worths, demands := []float64{100}, []float64{0.3}
	for range [7]int{} {
		worths, demands = append(worths, 10), append(demands, 0.08)
	}
	_, a := oneMachineFixture(worths, demands)
	sc := &Scenario{Events: []Event{{Kind: Step, At: 10, Duration: 10, Factor: 2}}}
	res, err := Run(a, sc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 5 || res.Shed <= maxReadmit {
		t.Fatalf("shed %d, want 5 (more than the %d one tick may re-admit)", res.Shed, maxReadmit)
	}
	perTick := map[float64]int{}
	for _, act := range res.Actions {
		if act.Kind == Readmitted {
			perTick[act.Time]++
		}
	}
	if want := map[float64]int{20: maxReadmit, 21: 1}; !reflect.DeepEqual(perTick, want) {
		t.Errorf("re-admissions per tick %v, want %v", perTick, want)
	}
	if res.Retained != 1 {
		t.Errorf("retained %v, want 1", res.Retained)
	}
}

// TestControllerComposesWithFaults: a machine outage on the controller
// timeline sheds the strings stranded on it (reason "outage") and re-admits
// them after the repair; during the outage the survivor machine has no room.
func TestControllerComposesWithFaults(t *testing.T) {
	sys := model.NewUniformSystem(2, 5)
	for range [2]int{} {
		sys.AddString(model.AppString{Worth: 5, Period: 10, MaxLatency: 100,
			Apps: []model.Application{model.UniformApp(2, 7, 1, 0)}})
	}
	a := feasibility.New(sys)
	a.Assign(0, 0, 0)
	a.Assign(1, 0, 1)
	res, err := Run(a, &Scenario{}, Config{Faults: &faults.Scenario{Events: []faults.Event{
		{Resource: faults.Machine(1), At: 5, Duration: 5},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	want := []Action{
		{Time: 5, StringID: 1, Kind: Shed, Reason: "outage"},
		{Time: 10, StringID: 1, Kind: Readmitted, Reason: "slack-recovered"},
	}
	if !reflect.DeepEqual(res.Actions, want) {
		t.Fatalf("actions %+v\nwant %+v", res.Actions, want)
	}
	for _, s := range res.Samples {
		if s.Time >= 5 && s.Time < 10 && s.Mapped != 1 {
			t.Errorf("t=%v: %d strings mapped during the outage, want 1", s.Time, s.Mapped)
		}
	}
	if res.Retained != 1 || !res.Feasible {
		t.Errorf("retained %v, feasible %v, want 1/true", res.Retained, res.Feasible)
	}
	if res.FinalAlloc.NumComplete() != 2 {
		t.Errorf("%d strings mapped at the end, want both", res.FinalAlloc.NumComplete())
	}
}

// TestControllerDeterministic: two runs over the same seeded burst scenario
// and initial allocation must produce identical action and sample traces.
func TestControllerDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sys := model.NewUniformSystem(4, 20)
	for k := 0; k < 12; k++ {
		sys.AddString(model.AppString{
			Worth:      1 + rng.Float64()*99,
			Period:     10,
			MaxLatency: 100,
			Apps: []model.Application{
				model.UniformApp(4, 0.5+rng.Float64()*2, 0.5+rng.Float64()*0.5, 1),
			},
		})
	}
	r := heuristics.MWF(sys)
	sc, err := Burst{Bursts: 5, Window: 60, MaxFactor: 4, MeanDuration: 20, GlobalProb: 0.4}.Sample(12, 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		res, err := Run(r.Alloc, sc, Config{ShedBelow: 0.02, ReadmitAbove: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1.Actions, r2.Actions) {
		t.Error("two identical runs produced different action traces")
	}
	if !reflect.DeepEqual(r1.Samples, r2.Samples) {
		t.Error("two identical runs produced different sample traces")
	}
	if r1.Retained != r2.Retained || r1.TimeOverCapacity != r2.TimeOverCapacity ||
		r1.Shed != r2.Shed || r1.Readmitted != r2.Readmitted || r1.Migrated != r2.Migrated {
		t.Error("two identical runs produced different summaries")
	}
}

// TestControllerDoesNotMutateInputs: the caller's allocation and system
// survive a run untouched — the episode's scaled view shares the system's
// bandwidth and utilization rows, and every demand float keeps its bits.
func TestControllerDoesNotMutateInputs(t *testing.T) {
	_, a := oneMachineFixture([]float64{100, 10, 10}, []float64{0.3, 0.3, 0.3})
	sc := &Scenario{Events: []Event{{Kind: Step, At: 10, Duration: 10, Factor: 2}}}
	if _, err := Run(a, sc, Config{}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if a.Machine(k, 0) != 0 {
			t.Errorf("input allocation changed for string %d", k)
		}
	}

	cfg := workload.ScenarioConfig(workload.HighlyLoaded)
	cfg.Strings = 40
	sys := workload.MustGenerate(cfg, 2)
	alloc := heuristics.MWF(sys).Alloc
	sysBits, digest := catalogBits(sys), feasibility.StateDigest(alloc)
	surge := &Scenario{Events: []Event{
		{Kind: Step, At: 1, Duration: 3, Factor: 2.5},
		{Kind: Ramp, At: 2, Factor: 1.7, Rise: 2, Strings: []int{0, 3, 5}},
	}}
	res, err := Run(alloc, surge, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatal("the surge shed nothing; the check is vacuous")
	}
	if !reflect.DeepEqual(catalogBits(sys), sysBits) {
		t.Error("Run wrote the caller's system")
	}
	if got := feasibility.StateDigest(alloc); got != digest {
		t.Errorf("Run changed the caller's allocation: digest %s, was %s", got, digest)
	}
}

// catalogBits flattens every float of sys — bandwidths, then each
// application's nominal times, utilizations and output size — into bits.
func catalogBits(sys *model.System) []uint64 {
	var out []uint64
	for _, row := range sys.Bandwidth {
		for _, w := range row {
			out = append(out, math.Float64bits(w))
		}
	}
	for k := range sys.Strings {
		for _, app := range sys.Strings[k].Apps {
			for j := range app.NominalTime {
				out = append(out, math.Float64bits(app.NominalTime[j]), math.Float64bits(app.NominalUtil[j]))
			}
			out = append(out, math.Float64bits(app.OutputKB))
		}
	}
	return out
}

// TestControllerValidation: bad configs and mismatched inputs error cleanly.
func TestControllerValidation(t *testing.T) {
	_, a := oneMachineFixture([]float64{1}, []float64{0.1})
	if _, err := Run(a, &Scenario{}, Config{ShedBelow: 0.5, ReadmitAbove: 0.1}); err == nil {
		t.Error("inverted hysteresis thresholds accepted")
	}
	bad := &Scenario{Events: []Event{{Kind: Step, At: 0, Factor: 2, Strings: []int{5}}}}
	if _, err := Run(a, bad, Config{}); err == nil {
		t.Error("out-of-range surge scenario accepted")
	}
}

// TestReadmitNearTieChainDeterministic: a 2x surge sheds five strings whose
// densities form a near-tie chain (each feasibility.AlmostEqual to its
// neighbours, not to the ones two away), and re-admission takes them back in
// the order its density sort gives them. Gathered in map order that sort
// returned a different order from run to run; gathered in ascending ID every
// run must log the same actions.
func TestReadmitNearTieChainDeterministic(t *testing.T) {
	worths, demands := []float64{100}, []float64{0.3}
	for i := 0; i < 7; i++ {
		worths, demands = append(worths, 1+float64(i)*0.6e-9), append(demands, 0.08)
	}
	sc := &Scenario{Events: []Event{{Kind: Step, At: 10, Duration: 10, Factor: 2}}}
	var first []Action
	for round := 0; round < 50; round++ {
		_, a := oneMachineFixture(worths, demands)
		res, err := Run(a, sc, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			first = res.Actions
			if res.Shed != 5 || res.Readmitted != 5 {
				t.Fatalf("shed %d, readmitted %d, want 5/5: %+v", res.Shed, res.Readmitted, res.Actions)
			}
			continue
		}
		if !reflect.DeepEqual(res.Actions, first) {
			t.Fatalf("round %d: actions %+v\nwant %+v", round, res.Actions, first)
		}
	}
}
