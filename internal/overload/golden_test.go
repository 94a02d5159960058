package overload

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/faults"
	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/workload"
)

// TestControllerGolden pins the degradation controller's timeline — every
// shed, migration and re-admission, each tick's sample, and the exact final
// allocation — on scenario-1 systems under a 2.5x fleet-wide step surge that
// overlaps one machine outage. The soak test's surge stage never sheds, so its
// fingerprints cannot see a changed victim or re-admission order. The golden
// file was recorded from the controller that still carried mapped flags and
// a placement table from tick to tick; regenerate it with
//
//	UPDATE_GOLDEN=1 go test -run TestControllerGolden ./internal/overload/
func TestControllerGolden(t *testing.T) {
	sc := &Scenario{Events: []Event{{Kind: Step, At: 2, Duration: 4, Factor: 2.5}}}
	outage := &faults.Scenario{Events: []faults.Event{{Resource: faults.Machine(3), At: 3, Duration: 5}}}
	var got bytes.Buffer
	for seed := int64(1); seed <= 3; seed++ {
		sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), seed)
		r := heuristics.MWF(sys)
		res, err := Run(r.Alloc, sc, Config{ShedBelow: 0.02, ReadmitAbove: 0.1, Faults: outage})
		if err != nil {
			t.Fatal(err)
		}
		if res.Shed == 0 || res.Readmitted == 0 {
			t.Errorf("seed %d: shed %d, readmitted %d — the golden case is vacuous", seed, res.Shed, res.Readmitted)
		}
		fmt.Fprintf(&got, "seed %d\n", seed)
		for _, a := range res.Actions {
			fmt.Fprintf(&got, "  t=%g %s %d %s\n", a.Time, a.Kind, a.StringID, a.Reason)
		}
		for _, s := range res.Samples {
			fmt.Fprintf(&got, "  sample t=%g slackness %016x worth %016x mapped %d overloaded %v\n",
				s.Time, math.Float64bits(s.Slackness), math.Float64bits(s.Worth), s.Mapped, s.Overloaded)
		}
		fmt.Fprintf(&got, "  worth %016x -> %016x trough %016x over-capacity %g feasible %v\n",
			math.Float64bits(res.WorthBefore), math.Float64bits(res.WorthAfter),
			math.Float64bits(res.MinRetained), res.TimeOverCapacity, res.Feasible)
		fmt.Fprintf(&got, "  digest %s\n", feasibility.StateDigest(res.FinalAlloc))
	}

	const path = "testdata/controller.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("controller timeline diverges from %s:\n%s", path, got.String())
	}
}
