package dynamic

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

// TestRepairSurviveGolden pins the repair controllers' decisions — which
// string is migrated, evicted or reclaimed, in what order, at what cost, and
// the exact final allocation — on scenario-1 systems, where the soak test's
// control stage never evicts and so cannot see a changed victim. The golden
// file was recorded from the controllers that still took a mapped []bool
// beside the allocation; regenerate it with
//
//	UPDATE_GOLDEN=1 go test -run TestRepairSurviveGolden ./internal/dynamic/
func TestRepairSurviveGolden(t *testing.T) {
	var got bytes.Buffer
	for seed := int64(1); seed <= 3; seed++ {
		sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), seed)
		r := heuristics.MWF(sys)

		scaled, err := ScaleWorkload(sys, 1.6)
		if err != nil {
			t.Fatal(err)
		}
		alloc, err := feasibility.FromSnapshot(scaled, r.Alloc.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		res := Repair(alloc)
		writeGoldenCase(t, &got, fmt.Sprintf("seed %d repair x1.6", seed), alloc, res)

		down := faults.NewSet(sys.Machines)
		for _, j := range []int{1, 7} {
			for _, e := range faults.CompartmentHit(sys.Machines, j, 0, 0) {
				down.Fail(e.Resource)
			}
		}
		alloc = r.Alloc.Clone()
		res, err = Survive(alloc, down)
		if err != nil {
			t.Fatal(err)
		}
		writeGoldenCase(t, &got, fmt.Sprintf("seed %d survive compartments 1,7", seed), alloc, res)
	}

	const path = "testdata/repair_survive.golden"
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
		t.Errorf("repair decisions diverge from %s:\n%s", path, got.String())
	}
}

// writeGoldenCase renders one repair: every action, then the summary floats
// as exact bit patterns and the digest of the repaired allocation.
func writeGoldenCase(t *testing.T, w *bytes.Buffer, name string, alloc *feasibility.Allocation, res *Result) {
	t.Helper()
	if _, evicted, _ := res.Counts(); evicted == 0 {
		t.Errorf("%s: no eviction, the golden case is vacuous", name)
	}
	fmt.Fprintf(w, "%s\n", name)
	fmt.Fprintf(w, "  evacuated %v\n", res.Evacuated)
	for _, a := range res.Actions {
		fmt.Fprintf(w, "  %s %d moved %d cost %016x\n", a.Kind, a.StringID, a.MovedApps, math.Float64bits(a.CostSeconds))
	}
	fmt.Fprintf(w, "  worth %016x -> %016x slackness %016x feasible %v mapped %d\n",
		math.Float64bits(res.WorthBefore), math.Float64bits(res.WorthAfter),
		math.Float64bits(res.SlacknessAfter), res.Feasible, alloc.NumComplete())
	fmt.Fprintf(w, "  digest %s\n", feasibility.StateDigest(alloc))
}
