package overload

import (
	"runtime/debug"
	"testing"

	"repro/internal/faults"
	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// surgeEpisode is the scenario-1 ship (seed 1) mapped by MWF under the
// battle-stations surge of examples/overload: 183 control ticks over 150
// strings, with sheds at the fleet-wide step and re-admissions after it.
func surgeEpisode(tb testing.TB) (*feasibility.Allocation, *Scenario) {
	tb.Helper()
	sc, err := LoadFile("../../examples/overload/surge.json")
	if err != nil {
		tb.Fatal(err)
	}
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 1)
	return heuristics.MWF(sys).Alloc, sc
}

// BenchmarkSurgeEpisode prices one controller run over surgeEpisode with the
// default Config. rebases/op and string_checks/op are exact counts, taken
// from one telemetry-enabled run outside the timer: the episode's one full
// scan, and the equation-(1) verdicts its ticks computed.
func BenchmarkSurgeEpisode(b *testing.B) {
	a, sc := surgeEpisode(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(a, sc, Config{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	prev := telemetry.Active()
	reg := telemetry.Enable()
	_, err := Run(a, sc, Config{})
	telemetry.EnableRegistry(prev)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(reg.Counter("feasibility.delta.rebases").Value()), "rebases/op")
	b.ReportMetric(float64(reg.Counter("feasibility.delta.string_checks").Value()), "string_checks/op")
}

// An episode allocates what it measured once it became one tracked
// allocation, plus a tenth. A per-tick rebuild coming back (a Reset, a
// re-placement of every string and a full rebase each tick, about 12 000
// allocations) or a per-tick System clone fails here.
func TestSurgeEpisodeAllocs(t *testing.T) {
	skipUnderRace(t)
	a, sc := surgeEpisode(t)
	const measured = 6518
	got := testing.AllocsPerRun(3, func() {
		if _, err := Run(a, sc, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("surge episode: %.0f allocations", got)
	if got > measured*1.1 {
		t.Errorf("surge episode: %.0f allocations, want at most %d + 10%%", got, measured)
	}
}

// TestEpisodeStateIsItsMapping: an episode that re-places only the strings
// whose factor changed ends in the state a fresh re-placement of its final
// mapping, on a view at the last tick's demand, would have, and its Feasible is
// that rebuild's two-stage verdict. The cases are sampled bursts on cut
// scenario 1-3 ships, from MWF and TF starts, with and without an outage, so
// the demand drifts across many ticks and shedding, migration and
// re-admission all move strings between them.
func TestEpisodeStateIsItsMapping(t *testing.T) {
	burst := Burst{Bursts: 4, Window: 60, MaxFactor: 4, MeanDuration: 20, GlobalProb: 0.5}
	outage := &faults.Scenario{Events: []faults.Event{{Resource: faults.Machine(3), At: 10, Duration: 30}}}
	cases, shedding := 0, 0
	for _, scen := range []workload.Scenario{workload.HighlyLoaded, workload.QoSLimited, workload.LightlyLoaded} {
		cfg := workload.ScenarioConfig(scen)
		cfg.Strings = min(cfg.Strings, 40)
		base := workload.MustGenerate(cfg, int64(scen))
		n := len(base.Strings)
		for _, start := range []*heuristics.Result{heuristics.MWF(base), heuristics.TF(base)} {
			for _, faulted := range []*faults.Scenario{nil, outage} {
				for seed := int64(1); seed <= 3; seed++ {
					sc, err := burst.Sample(n, seed)
					if err != nil {
						t.Fatal(err)
					}
					res, err := Run(start.Alloc, sc, Config{ShedBelow: 0.02, ReadmitAbove: 0.1, Faults: faulted})
					if err != nil {
						t.Fatal(err)
					}
					cases++
					if res.Shed > 0 {
						shedding++
					}
					lastTick := res.Samples[len(res.Samples)-1].Time
					view := model.ScaledView(base, sc.FactorsAt(lastTick, n))
					rebuilt, err := feasibility.FromSnapshot(view, res.FinalAlloc.Snapshot())
					if err != nil {
						t.Fatal(err)
					}
					if got, want := feasibility.StateDigest(res.FinalAlloc), feasibility.StateDigest(rebuilt); got != want {
						t.Errorf("%v, %s start, outage %v, burst %d: final digest %s, its mapping rebuilt %s",
							scen, start.Name, faulted != nil, seed, got, want)
					}
					if want := rebuilt.TwoStageFeasible(); res.Feasible != want {
						t.Errorf("%v, %s start, outage %v, burst %d: Feasible %v, rebuilt mapping %v",
							scen, start.Name, faulted != nil, seed, res.Feasible, want)
					}
				}
			}
		}
	}
	if 2*shedding <= cases {
		t.Errorf("%d of %d cases shed; the comparison is mostly vacuous", shedding, cases)
	}
	t.Logf("%d cases, %d shed", cases, shedding)
}

// skipUnderRace skips allocation-count tests under the race detector, whose
// instrumentation allocates on its own and makes the count wander.
func skipUnderRace(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under the race detector the allocation count wanders")
			}
		}
	}
}
