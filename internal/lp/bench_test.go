package lp

import (
	"testing"

	"repro/internal/simplex"
	"repro/internal/workload"
)

// BenchmarkInteriorPoint times the paper's cited Simplex alternative on the
// relaxed worth bound of a reduced scenario-1 instance.
func BenchmarkInteriorPoint(b *testing.B) {
	cfg := workload.ScenarioConfig(workload.HighlyLoaded)
	cfg.Strings = 40
	sys := workload.MustGenerate(cfg, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld, err := build(sys, Config{Formulation: Relaxed, Objective: MaximizeWorth})
		if err != nil {
			b.Fatal(err)
		}
		sol, err := bld.prob.SolveInterior()
		if err != nil || sol.Status != simplex.Optimal {
			b.Fatalf("%v %v", err, sol)
		}
	}
}
