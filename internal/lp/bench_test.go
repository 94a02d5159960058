package lp

import (
	"fmt"
	"testing"

	"repro/internal/simplex"
	"repro/internal/workload"
)

// BenchmarkUpperBoundFleet prices the relaxed worth bound of fleet ships at
// M=128 (the benchmark's `fleet`), 256 and 512. CI's benchmark smoke step
// runs each once per push: M=512 is under a second while the basis
// factorisation is sparse and pricing is partial, and a minute and a half
// with a dense basis inverse and full pricing.
func BenchmarkUpperBoundFleet(b *testing.B) {
	for _, m := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			sys := workload.MustGenerate(workload.FleetConfig(m, 2), 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// M=512 has 883 200 columns, above the default guard.
				bound, err := UpperBound(sys, Config{Formulation: Relaxed, Objective: MaximizeWorth, MaxVariables: 1 << 20})
				if err != nil || bound.Status != simplex.Optimal {
					b.Fatalf("%v %v", err, bound)
				}
				b.ReportMetric(float64(bound.Iterations), "pivots")
			}
		})
	}
}
