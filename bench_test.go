// Benchmarks regenerating each table and figure of the paper's evaluation
// (see the per-experiment index in DESIGN.md), plus micro-benchmarks of the
// core building blocks. Figure benchmarks run on full-scale paper workloads
// with a reduced GENITOR budget per op (the default budgets are exercised by
// cmd/experiments, whose recorded output is in EXPERIMENTS.md); each op's
// achieved metric is reported via b.ReportMetric so the paper's bar heights
// can be read straight from the benchmark output.
package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/feasibility"
	"repro/internal/genitor"
	"repro/internal/heuristics"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/simplex"
	"repro/internal/transport"
	"repro/internal/workload"
)

// benchPSG is the per-op GENITOR budget used inside benchmarks.
func benchPSG(seed int64) heuristics.PSGConfig {
	cfg := heuristics.DefaultPSGConfig()
	cfg.MaxIterations = 200
	cfg.StallLimit = 150
	cfg.Trials = 1
	cfg.Seed = seed
	return cfg
}

// benchFigureWorth runs one heuristic repeatedly on a fixed full-scale
// instance of the given scenario, reporting mean achieved worth.
func benchFigureWorth(b *testing.B, scenario workload.Scenario) {
	sys := workload.MustGenerate(workload.ScenarioConfig(scenario), 1)
	for _, name := range heuristics.Names {
		b.Run(name, func(b *testing.B) {
			total := 0.0
			for i := 0; i < b.N; i++ {
				r := heuristics.Run(name, sys, benchPSG(int64(i)))
				total += r.Metric.Worth
			}
			b.ReportMetric(total/float64(b.N), "worth/op")
		})
	}
	b.Run("UB", func(b *testing.B) {
		total := 0.0
		for i := 0; i < b.N; i++ {
			bound, err := lp.UpperBound(sys, lp.Config{Formulation: lp.Relaxed, Objective: lp.MaximizeWorth})
			if err != nil || bound.Status != simplex.Optimal {
				b.Fatalf("UB failed: %v %v", err, bound)
			}
			total += bound.Objective
		}
		b.ReportMetric(total/float64(b.N), "worth/op")
	})
}

// BenchmarkFigure3 regenerates Figure 3 (total worth, highly loaded
// scenario 1): one sub-benchmark per bar.
func BenchmarkFigure3(b *testing.B) { benchFigureWorth(b, workload.HighlyLoaded) }

// BenchmarkFigure4 regenerates Figure 4 (total worth, QoS-limited
// scenario 2).
func BenchmarkFigure4(b *testing.B) { benchFigureWorth(b, workload.QoSLimited) }

// BenchmarkFigure5 regenerates Figure 5 (system slackness, lightly loaded
// scenario 3).
func BenchmarkFigure5(b *testing.B) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.LightlyLoaded), 1)
	for _, name := range heuristics.Names {
		b.Run(name, func(b *testing.B) {
			total := 0.0
			for i := 0; i < b.N; i++ {
				r := heuristics.Run(name, sys, benchPSG(int64(i)))
				total += r.Metric.Slackness
			}
			b.ReportMetric(total/float64(b.N), "slackness/op")
		})
	}
	b.Run("UB", func(b *testing.B) {
		total := 0.0
		for i := 0; i < b.N; i++ {
			bound, err := lp.UpperBound(sys, lp.Config{Formulation: lp.Relaxed, Objective: lp.MaximizeSlackness})
			if err != nil || bound.Status != simplex.Optimal {
				b.Fatalf("UB failed: %v %v", err, bound)
			}
			total += bound.Objective
		}
		b.ReportMetric(total/float64(b.N), "slackness/op")
	})
}

// BenchmarkFigure2 regenerates the Figure 2 validation: analytic equation (5)
// estimates against the discrete-event simulation of the three CPU-sharing
// cases.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cases, err := experiments.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cases {
			if d := c.Estimated - c.Simulated; d > 1e-6 || d < -1e-6 {
				b.Fatalf("%s: estimate %v != simulated %v", c.Name, c.Estimated, c.Simulated)
			}
		}
	}
}

// BenchmarkTable1 regenerates the Table 1 workloads: one sub-benchmark per
// scenario's generator at full paper scale.
func BenchmarkTable1(b *testing.B) {
	for _, sc := range []workload.Scenario{workload.HighlyLoaded, workload.QoSLimited, workload.LightlyLoaded} {
		b.Run(fmt.Sprintf("scenario%d", int(sc)), func(b *testing.B) {
			cfg := workload.ScenarioConfig(sc)
			for i := 0; i < b.N; i++ {
				if _, err := workload.Generate(cfg, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTimingHeuristics is the Section 8 execution-time comparison: the
// ns/op column of each sub-benchmark is the comparison the paper reports in
// prose (MWF/TF seconds; PSG hours on 2005 hardware; LP under two seconds).
func BenchmarkTimingHeuristics(b *testing.B) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 1)
	b.Run("MWF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			heuristics.MWF(sys)
		}
	})
	b.Run("TF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			heuristics.TF(sys)
		}
	})
	b.Run("PSG-200iters", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			heuristics.Run("PSG", sys, benchPSG(int64(i)))
		}
	})
	b.Run("LP-UB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lp.UpperBound(sys, lp.Config{Formulation: lp.Relaxed, Objective: lp.MaximizeWorth}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBias exercises the bias-sweep ablation (E8) at two
// selective pressures on a reduced scenario 2.
func BenchmarkAblationBias(b *testing.B) {
	cfg := workload.ScenarioConfig(workload.QoSLimited)
	cfg.Strings = 50
	sys := workload.MustGenerate(cfg, 3)
	for _, bias := range []float64{1.0, 1.6, 2.0} {
		b.Run(fmt.Sprintf("bias%.1f", bias), func(b *testing.B) {
			total := 0.0
			for i := 0; i < b.N; i++ {
				pcfg := benchPSG(int64(i))
				pcfg.Bias = bias
				total += heuristics.Run("PSG", sys, pcfg).Metric.Worth
			}
			b.ReportMetric(total/float64(b.N), "worth/op")
		})
	}
}

// BenchmarkAblationSeeding contrasts random-start PSG with Seeded PSG (E8).
func BenchmarkAblationSeeding(b *testing.B) {
	cfg := workload.ScenarioConfig(workload.QoSLimited)
	cfg.Strings = 50
	sys := workload.MustGenerate(cfg, 3)
	for _, seeded := range []bool{false, true} {
		name := "PSG"
		if seeded {
			name = "SeededPSG"
		}
		b.Run(name, func(b *testing.B) {
			total := 0.0
			for i := 0; i < b.N; i++ {
				r := heuristics.Run(name, sys, benchPSG(int64(i)))
				total += r.Metric.Worth
			}
			b.ReportMetric(total/float64(b.N), "worth/op")
		})
	}
}

// BenchmarkRobustnessReplay is the E7 workload-scale replay: a scenario-3
// allocation simulated at the planned workload and at 2x.
func BenchmarkRobustnessReplay(b *testing.B) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.LightlyLoaded), 2)
	r := heuristics.MWF(sys)
	for _, scale := range []float64{1.0, 2.0} {
		b.Run(fmt.Sprintf("scale%.1f", scale), func(b *testing.B) {
			viol := 0.0
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(r.Alloc, sim.Config{Periods: 8, WorkloadScale: scale})
				if err != nil {
					b.Fatal(err)
				}
				viol += float64(res.QoSViolations)
			}
			b.ReportMetric(viol/float64(b.N), "violations/op")
		})
	}
}

// BenchmarkUpperBoundFull times the paper's complete LP formulation on a
// reduced instance (it is cubic-ish in rows; the relaxed formulation covers
// full scale and is timed in BenchmarkTimingHeuristics/LP-UB).
func BenchmarkUpperBoundFull(b *testing.B) {
	cfg := workload.ScenarioConfig(workload.LightlyLoaded)
	cfg.Strings = 6
	sys := workload.MustGenerate(cfg, 1)
	for i := 0; i < b.N; i++ {
		bound, err := lp.UpperBound(sys, lp.Config{Formulation: lp.Full, Objective: lp.MaximizeWorth})
		if err != nil || bound.Status != simplex.Optimal {
			b.Fatalf("%v %v", err, bound)
		}
	}
}

// BenchmarkPSG times the full PSG search (4 trials, reduced GENITOR budget)
// at paper scale for different worker counts. Results are bit-identical across
// the sub-benchmarks — only wall clock changes — so worth/op doubles as a
// determinism check. On a multi-core host the workersN variants spread the
// trials over N goroutines; worker counts beyond the trial count add batched
// candidate evaluation inside each trial. The fleet row is shipbench's plan
// phase on its fleet ship in process: FleetConfig(128, 2), 40 iterations,
// one trial, one worker, the search's tables built inside every op.
func BenchmarkPSG(b *testing.B) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 1)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			total := 0.0
			for i := 0; i < b.N; i++ {
				cfg := benchPSG(int64(i))
				cfg.Trials = 4
				cfg.Workers = workers
				total += heuristics.Run("PSG", sys, cfg).Metric.Worth
			}
			b.ReportMetric(total/float64(b.N), "worth/op")
		})
	}
	fleet := workload.MustGenerate(workload.FleetConfig(128, 2), 1)
	b.Run("fleet", func(b *testing.B) {
		total := 0.0
		for i := 0; i < b.N; i++ {
			cfg := heuristics.DefaultPSGConfig()
			cfg.MaxIterations = 40
			cfg.Trials = 1
			cfg.Workers = 1
			cfg.Seed = int64(i)
			total += heuristics.Run("PSG", fleet, cfg).Metric.Worth
		}
		b.ReportMetric(total/float64(b.N), "worth/op")
	})
}

// BenchmarkMapSequence contrasts the fresh-allocation decode path with the
// scratch-reusing MapSequenceInto the PSG evaluator lanes run on: the delta is
// the per-decode cost of rebuilding the O(M^2) allocation matrices.
func BenchmarkMapSequence(b *testing.B) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 1)
	order := heuristics.MWFOrder(sys)
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			heuristics.MapSequence(sys, order)
		}
	})
	b.Run("reuse", func(b *testing.B) {
		scratch := feasibility.New(sys)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			heuristics.MapSequenceInto(scratch, order)
		}
	})
}

// --- micro-benchmarks of the core building blocks ---

func BenchmarkIMRMapString(b *testing.B) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := feasibility.New(sys)
		k := i % len(sys.Strings)
		heuristics.MapStringIMR(a, k)
	}
}

func BenchmarkTwoStageFeasibility(b *testing.B) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.LightlyLoaded), 1)
	r := heuristics.MWF(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Alloc.TwoStageFeasible() {
			b.Fatal("mapping became infeasible")
		}
	}
}

func BenchmarkSequenceDecode(b *testing.B) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 1)
	order := heuristics.MWFOrder(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		heuristics.MapSequence(sys, order)
	}
}

func BenchmarkGenitorStep(b *testing.B) {
	cfg := genitor.DefaultConfig()
	cfg.PopulationSize = 50
	cfg.MaxIterations = 1 << 30
	cfg.StallLimit = 1 << 30
	eval := func(p []int) genitor.Fitness {
		s := 0.0
		for i := 1; i < len(p); i++ {
			if p[i] > p[i-1] {
				s++
			}
		}
		return genitor.Fitness{Primary: s}
	}
	eng, err := genitor.New(cfg, 150, nil, eval)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

func BenchmarkSimplexRevised(b *testing.B) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.LightlyLoaded), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.UpperBound(sys, lp.Config{Formulation: lp.Relaxed, Objective: lp.MaximizeWorth}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransportPlan(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := make([]float64, 12)
	c := make([]float64, 12)
	total := 0.0
	for j := range a {
		a[j] = rng.Float64()
		total += a[j]
	}
	rem := total
	for j := 0; j < 11; j++ {
		c[j] = rem * rng.Float64()
		rem -= c[j]
	}
	c[11] = rem
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transport.Plan(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulator(b *testing.B) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.LightlyLoaded), 1)
	r := heuristics.MWF(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(r.Alloc, sim.Config{Periods: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocationAssign(b *testing.B) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.LightlyLoaded), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := feasibility.New(sys)
		for k := range sys.Strings {
			for idx := range sys.Strings[k].Apps {
				a.Assign(k, idx, (k+idx)%sys.Machines)
			}
		}
	}
}

var benchSink *model.System

func BenchmarkWorkloadClone(b *testing.B) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = sys.Clone()
	}
}

// --- benchmarks for the extension substrates ---

// BenchmarkDynamicRepair times the migrate/evict repair loop after a 2.5x
// workload surge.
func BenchmarkDynamicRepair(b *testing.B) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.LightlyLoaded), 1)
	base := heuristics.MWF(sys)
	scaled, err := dynamic.ScaleWorkload(sys, 2.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc, err := feasibility.FromSnapshot(scaled, base.Alloc.Snapshot())
		if err != nil {
			b.Fatal(err)
		}
		res := dynamic.Repair(alloc)
		if !res.Feasible {
			b.Fatal("repair failed")
		}
	}
}

// BenchmarkFailover measures repair latency of the Survive controller as a
// function of the number of simultaneously failed machines (each a full
// compartment hit: the machine plus every incident route).
func BenchmarkFailover(b *testing.B) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.LightlyLoaded), 1)
	base := heuristics.MWF(sys)
	for _, hits := range []int{1, 2, 4, 6} {
		b.Run(fmt.Sprintf("hits%d", hits), func(b *testing.B) {
			down := faults.NewSet(sys.Machines)
			for j := 0; j < hits; j++ {
				for _, e := range faults.CompartmentHit(sys.Machines, j, 0, 0) {
					down.Fail(e.Resource)
				}
			}
			retained := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				alloc := base.Alloc.Clone()
				res, err := dynamic.Survive(alloc, down)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Feasible {
					b.Fatal("failover failed")
				}
				retained += res.Retained
			}
			b.ReportMetric(retained/float64(b.N), "retained/op")
		})
	}
}

// BenchmarkPooledMapping times pool-granular allocation at pool size 4.
func BenchmarkPooledMapping(b *testing.B) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 1)
	part, err := pool.Uniform(sys.Machines, 4)
	if err != nil {
		b.Fatal(err)
	}
	order := heuristics.MWFOrder(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.MapSequencePooled(sys, part, order); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSGDecode times one solution-space decode with repair at paper
// scale.
func BenchmarkSSGDecode(b *testing.B) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.QoSLimited), 1)
	genes := make([]int, sys.NumApps())
	for g := range genes {
		genes[g] = g % sys.Machines
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := heuristics.DecodeAssignment(sys, genes)
		if !r.Alloc.TwoStageFeasible() {
			b.Fatal("repair failed")
		}
	}
}
