package overload

import (
	"runtime/debug"
	"testing"

	"repro/internal/feasibility"
	"repro/internal/heuristics"
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
// default Config.
func BenchmarkSurgeEpisode(b *testing.B) {
	a, sc := surgeEpisode(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(a, sc, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// An episode allocates what it did once the analyzer stopped copying rosters
// into its window snapshots, plus a tenth: a per-tick System clone or
// Allocation creeping back costs thousands of allocations and fails here.
func TestSurgeEpisodeAllocs(t *testing.T) {
	skipUnderRace(t)
	a, sc := surgeEpisode(t)
	const measured = 12188
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
