// BenchmarkSparseScale measures what the sparse route-state refactor is for:
// the cost of owning, copying, and mutating an Allocation as the machine
// count grows past the paper's Table 1 sizes while route usage stays sparse.
// The dense-vs-sparse numbers are quoted in DESIGN.md §13; the CI benchmark
// smoke runs every case once to keep it compiling and honest.
package feasibility_test

import (
	"testing"

	"repro/internal/feasibility"
	"repro/internal/model"
	"repro/internal/workload"
)

// sparseBenchSeed keys every benchmark workload.
const sparseBenchSeed = 7

// fleetSystem generates an M-machine suite with ~0.5 expected transfer edges
// per machine — the sparse regime: active routes O(M), machine pairs O(M^2).
func fleetSystem(b testing.TB, m int) *model.System {
	b.Helper()
	sys, err := workload.Generate(workload.FleetConfig(m, 0.5), sparseBenchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// tableSystem generates a Table-1-sized scenario-1 suite over m machines.
func tableSystem(b testing.TB, m, strings int) *model.System {
	b.Helper()
	cfg := workload.ScenarioConfig(workload.HighlyLoaded)
	cfg.Machines = m
	cfg.Strings = strings
	sys, err := workload.Generate(cfg, sparseBenchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// stringMachines places string k locally: application i on machine (k+i)%M,
// so each string activates a short run of adjacent routes and the system-wide
// active-route count stays O(total apps), not O(M^2).
func stringMachines(sys *model.System, k int) []int {
	machines := make([]int, len(sys.Strings[k].Apps))
	for i := range machines {
		machines[i] = (k + i) % sys.Machines
	}
	return machines
}

// loadSparse maps every string except hold onto its local placement, backing
// out any string that breaks stage-1 capacity so the admit cycle below runs
// against a loaded but not overloaded base.
func loadSparse(a *feasibility.Allocation, hold int) {
	sys := a.System()
	for k := range sys.Strings {
		if k == hold {
			continue
		}
		a.AssignString(k, stringMachines(sys, k))
		if !a.Stage1Feasible() {
			a.UnassignString(k)
		}
	}
}

func BenchmarkSparseScale(b *testing.B) {
	const bigM = 2048
	big := fleetSystem(b, bigM)

	// Memory footprint and construction cost of one allocation. Heuristic
	// workers hold one scratch allocation per lane; the bytes/op reported
	// here is the per-lane price of the route state.
	b.Run("new/M=2048", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchSink = feasibility.New(big)
		}
	})

	// Deep copy of a loaded sparse allocation (failover, soak, and snapshot
	// paths clone; PSG keeps the best-seen allocation by cloning it).
	b.Run("clone/M=2048", func(b *testing.B) {
		a := feasibility.New(big)
		loadSparse(a, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink = a.Clone()
		}
	})

	// Reset of a loaded scratch allocation — the per-decode cost every PSG
	// evaluation pays before replaying a permutation.
	b.Run("reset/M=2048", func(b *testing.B) {
		a := feasibility.New(big)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			loadSparse(a, 0)
			a.Reset()
		}
	})

	// One admission against a loaded fleet-scale base: place the held-out
	// string, run the incremental two-stage analysis, take it back out.
	b.Run("admit/M=2048", func(b *testing.B) {
		benchAdmit(b, big)
	})

	// Table-1 sizes: the refactor must not tax the paper-scale hot path.
	b.Run("admit/M=12", func(b *testing.B) {
		benchAdmit(b, tableSystem(b, 12, 50))
	})
	b.Run("admit/M=32", func(b *testing.B) {
		benchAdmit(b, tableSystem(b, 32, 50))
	})
}

// benchAdmit cycles one held-out string through one analyzer window — assign
// → FeasibleAfterDelta → Undo — against a loaded base allocation.
func benchAdmit(b *testing.B, sys *model.System) {
	a := feasibility.New(sys)
	hold := len(sys.Strings) - 1
	loadSparse(a, hold)
	machines := stringMachines(sys, hold)
	da := feasibility.Track(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.AssignString(hold, machines)
		benchFeasible = da.FeasibleAfterDelta()
		da.Undo()
	}
}

// Sinks prevent the compiler from eliding the benchmarked work.
var (
	benchSink     *feasibility.Allocation
	benchFeasible bool
)
