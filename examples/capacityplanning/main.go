// Capacity planning: how many strings can a 12-machine shipboard suite
// carry? The example sweeps the offered load (string count) on scenario-1
// style workloads, mapping each with MWF and Seeded PSG and computing the LP
// upper bound, then reports achieved worth and remaining slackness per load
// level — the curve an integrator would use to size the machine suite.
//
// Run with: go run ./examples/capacityplanning
package main

import (
	"fmt"
	"log"

	"repro/internal/heuristics"
	"repro/internal/lp"
	"repro/internal/simplex"
	"repro/internal/workload"
)

func main() {
	loads := []int{10, 25, 50, 100, 150}
	const runsPerLoad = 3

	psg := heuristics.DefaultPSGConfig()
	psg.MaxIterations = 300
	psg.Trials = 1

	fmt.Println("offered load sweep (scenario-1 workload parameters, 12 machines)")
	fmt.Printf("%8s  %10s  %12s  %12s  %12s  %10s\n",
		"strings", "offered", "MWF worth", "SeededPSG", "LP UB", "slackness")
	for _, q := range loads {
		cfg := workload.ScenarioConfig(workload.HighlyLoaded)
		cfg.Strings = q
		var offered, mwfWorth, spWorth, ubWorth, slack float64
		for run := 0; run < runsPerLoad; run++ {
			sys, err := workload.Generate(cfg, int64(100*q+run))
			if err != nil {
				log.Fatal(err)
			}
			offered += sys.TotalWorth()
			mwfWorth += heuristics.MWF(sys).Metric.Worth
			psg.Seed = int64(run)
			sp := heuristics.Run("SeededPSG", sys, psg)
			spWorth += sp.Metric.Worth
			slack += sp.Metric.Slackness
			b, err := lp.UpperBound(sys, lp.Config{Formulation: lp.Relaxed, Objective: lp.MaximizeWorth})
			if err != nil {
				log.Fatal(err)
			}
			if b.Status != simplex.Optimal {
				log.Fatalf("UB %v at load %d", b.Status, q)
			}
			ubWorth += b.Objective
		}
		n := float64(runsPerLoad)
		fmt.Printf("%8d  %10.0f  %12.0f  %12.0f  %12.0f  %10.3f\n",
			q, offered/n, mwfWorth/n, spWorth/n, ubWorth/n, slack/n)
	}
	fmt.Println("\nreading the table: worth saturates once the machine suite is full;")
	fmt.Println("slackness hitting ~0 marks the capacity knee; the LP UB caps what any")
	fmt.Println("allocation could have achieved at that load.")
}
