package lp

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/simplex"
	"repro/internal/workload"
)

// BenchmarkUpperBoundPaper prices the relaxed worth bound of scenario 1, seed
// 1 (the benchmark's `paper`), the solve behind `lpbound -in paper.json`:
// on one CPU of a 2-vCPU Xeon, 60 ms and 1 181 pivots from the crash basis,
// 0.18 s and 4 148 without it.
func BenchmarkUpperBoundPaper(b *testing.B) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bound, err := UpperBound(sys, Config{Formulation: Relaxed, Objective: MaximizeWorth})
		if err != nil || bound.Status != simplex.Optimal {
			b.Fatalf("%v %v", err, bound)
		}
		b.ReportMetric(float64(bound.Iterations), "pivots")
	}
}

// BenchmarkUpperBoundFleet prices the relaxed worth bound of fleet ships at
// M=128 (the benchmark's `fleet`), 256 and 512. CI's benchmark smoke step
// runs each once per push. On one CPU of a 2-vCPU Xeon they read
// 0.018 / 0.078 / 0.36 s and 323 / 707 / 1 549 pivots from the crash basis,
// 0.048 / 0.20 / 1.1 s and 1 337 / 3 089 / 8 038 without it; M=512 took a
// minute and a half with a dense basis inverse and full pricing.
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

// BenchmarkLPBoundRescale prices the re-solve a bounded daemon (shipd
// -lp-bound) pays per rescale, on scenario 1, seed 1: ten single-string
// ±10 % rescales — string (7r+3) mod Q, factors alternating 1.1 and 0.9 —
// each applied with model.ScaleDemand from the pristine catalog as the
// service applies them, then re-solved warm from the previous solve's basis
// and cold. warm_ms and cold_ms are the median re-solve of each arm and
// warm_used counts the re-solves whose warm basis the solver kept; the two
// arms must agree on the objective to 1e-6 relative. This is the traffic the
// warm path exists for: `lpbound -rescale`, which scales every string at
// once, is refused a warm basis.
func BenchmarkLPBoundRescale(b *testing.B) {
	base := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 1)
	cfg := Config{Formulation: Relaxed, Objective: MaximizeWorth}
	const rescales = 10
	for i := 0; i < b.N; i++ {
		sys := base.Clone()
		scale := make([]float64, len(sys.Strings))
		for k := range scale {
			scale[k] = 1
		}
		prev, err := UpperBound(sys, cfg)
		if err != nil || prev.Status != simplex.Optimal {
			b.Fatalf("initial solve: %v %v", err, prev)
		}
		var warmMS, coldMS []float64
		used := 0
		for r := 0; r < rescales; r++ {
			k, factor := (7*r+3)%len(sys.Strings), 1.1
			if r%2 == 1 {
				factor = 0.9
			}
			scale[k] *= factor
			model.ScaleDemand(sys.Strings[k].Apps, base.Strings[k].Apps, scale[k])

			warmCfg := cfg
			warmCfg.WarmBasis = prev.Basis
			start := time.Now()
			warm, err := UpperBound(sys, warmCfg)
			warmMS = append(warmMS, float64(time.Since(start))/1e6)
			if err != nil {
				b.Fatalf("rescale %d warm: %v", r, err)
			}
			start = time.Now()
			cold, err := UpperBound(sys, cfg)
			coldMS = append(coldMS, float64(time.Since(start))/1e6)
			if err != nil {
				b.Fatalf("rescale %d cold: %v", r, err)
			}
			if warm.Status != cold.Status || math.Abs(warm.Objective-cold.Objective) > 1e-6*math.Abs(cold.Objective) {
				b.Fatalf("rescale %d (string %d x%v): warm %v %v, cold %v %v", r, k, factor,
					warm.Status, warm.Objective, cold.Status, cold.Objective)
			}
			if warm.WarmStarted {
				used++
			}
			prev = warm
		}
		b.ReportMetric(median(warmMS), "warm_ms")
		b.ReportMetric(median(coldMS), "cold_ms")
		b.ReportMetric(float64(used), "warm_used")
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
