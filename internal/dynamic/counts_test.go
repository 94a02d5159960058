package dynamic

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// TestCountsNetEvictionsInvariant pins the documented Counts contract:
// migrated+evicted+reclaimed == len(Actions), reclaimed <= evicted, and
// evicted-reclaimed == NetEvictions() == the strings ending the repair
// unmapped.
func TestCountsNetEvictionsInvariant(t *testing.T) {
	cases := []struct {
		name   string
		worths []float64
		util   float64
		down   []int
	}{
		{"migration only", []float64{10, 10, 10}, 0.5, []int{1}},
		{"eviction under pressure", []float64{1, 100, 10}, 0.9, []int{0, 2}},
		{"total loss", []float64{1, 100, 10}, 0.9, []int{0, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, a := survivalFixture(tc.worths, tc.util)
			down := faults.NewSet(3)
			for _, j := range tc.down {
				down.Fail(faults.Machine(j))
			}
			res, err := Survive(a, down)
			if err != nil {
				t.Fatal(err)
			}
			mig, evi, rec := res.Counts()
			if mig+evi+rec != len(res.Actions) {
				t.Errorf("counts %d+%d+%d != %d actions", mig, evi, rec, len(res.Actions))
			}
			if rec > evi {
				t.Errorf("%d reclaims exceed %d evictions", rec, evi)
			}
			if got := res.NetEvictions(); got != evi-rec {
				t.Errorf("NetEvictions() = %d, want evicted-reclaimed = %d", got, evi-rec)
			}
			unmapped := len(sys.Strings) - a.NumComplete()
			if unmapped != res.NetEvictions() {
				t.Errorf("%d strings end unmapped, NetEvictions() = %d", unmapped, res.NetEvictions())
			}
		})
	}
}

// TestSurviveTelemetryMatchesCounts cross-checks the dynamic.* counters
// against the repair's own action tally — the instrumentation must agree with
// the result it observes.
func TestSurviveTelemetryMatchesCounts(t *testing.T) {
	prev := telemetry.Active()
	reg := telemetry.Enable()
	t.Cleanup(func() { telemetry.EnableRegistry(prev) })
	_, a := survivalFixture([]float64{1, 100, 10}, 0.9)
	down := faults.NewSet(3)
	down.Fail(faults.Machine(0))
	down.Fail(faults.Machine(2))
	res, err := Survive(a, down)
	if err != nil {
		t.Fatal(err)
	}
	mig, evi, rec := res.Counts()
	snap := reg.Snapshot()
	for _, c := range []struct {
		name string
		want int64
	}{
		{"dynamic.migrations", int64(mig)},
		{"dynamic.evictions", int64(evi)},
		{"dynamic.reclaims", int64(rec)},
		{"dynamic.evacuated", int64(len(res.Evacuated))},
	} {
		if got := snap.Counter(c.name); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if got := snap.Counter("dynamic.repair_iterations"); got < 1 {
		t.Errorf("dynamic.repair_iterations = %d, want >= 1", got)
	}
}
