// Dynamic reallocation: the paper notes that an initially feasible mapping
// can be invalidated by unpredictable workload growth, and that "dynamic
// mapping approaches may be needed to reallocate resources during execution".
// This example walks through that lifecycle:
//
//  1. allocate a lightly loaded (scenario 3) system with Seeded PSG;
//  2. rebalance it to buy extra slackness (slack hill climbing);
//  3. let the input workload surge non-uniformly (some strings more than
//     triple while the rest grow mildly);
//  4. run the repair controller: migrate what can move, evict what cannot;
//  5. verify the repaired mapping in the discrete-event simulator.
//
// Run with: go run ./examples/dynamicreallocation
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/dynamic"
	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	cfg := workload.ScenarioConfig(workload.LightlyLoaded)
	sys, err := workload.Generate(cfg, 11)
	if err != nil {
		log.Fatal(err)
	}

	psg := heuristics.DefaultPSGConfig()
	psg.MaxIterations = 400
	psg.Trials = 1
	psg.Seed = 4
	r := heuristics.Run("SeededPSG", sys, psg)
	fmt.Printf("initial allocation: %d/%d strings, worth %.0f, slackness %.3f\n",
		r.NumMapped, len(sys.Strings), r.Metric.Worth, r.Metric.Slackness)

	moves, slack := Rebalance(r.Alloc, 20)
	fmt.Printf("rebalance: %d migrations, slackness %.3f -> %.3f\n", moves, r.Metric.Slackness, slack)

	// Non-uniform surge: a random third of the strings more than triple, the rest +30%.
	rng := rand.New(rand.NewSource(7))
	gammas := make([]float64, len(sys.Strings))
	surged := 0
	for k := range gammas {
		if rng.Intn(3) == 0 {
			gammas[k] = 3.2
			surged++
		} else {
			gammas[k] = 1.3
		}
	}
	fmt.Printf("\nworkload surge: %d strings grow 3.2x, the rest grow 30%%\n", surged)
	scaled, err := dynamic.ScaleStrings(sys, gammas)
	if err != nil {
		log.Fatal(err)
	}
	alloc, err := feasibility.FromSnapshot(scaled, r.Alloc.Snapshot())
	if err != nil {
		log.Fatal(err)
	}
	if alloc.TwoStageFeasible() {
		fmt.Println("the surged workload still fits — the slack absorbed it, no repair needed")
	} else {
		fmt.Println("the surged workload violates the analysis — repairing:")
	}
	res := dynamic.Repair(alloc)
	for _, a := range res.Actions {
		switch a.Kind {
		case dynamic.Migrated:
			fmt.Printf("  migrated string %d (%d applications moved)\n", a.StringID, a.MovedApps)
		case dynamic.Evicted:
			fmt.Printf("  evicted string %d (worth %.0f)\n", a.StringID, scaled.Strings[a.StringID].Worth)
		case dynamic.Reclaimed:
			fmt.Printf("  reclaimed string %d (worth %.0f back in the mapping)\n",
				a.StringID, scaled.Strings[a.StringID].Worth)
		}
	}
	fmt.Printf("repair result: worth %.0f -> %.0f (%.0f%% retained), slackness %.3f\n",
		res.WorthBefore, res.WorthAfter, 100*res.WorthAfter/res.WorthBefore, res.SlacknessAfter)

	out, err := sim.Run(alloc, sim.Config{Periods: 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated the repaired system: %d events, %d QoS violations\n",
		out.Events, out.QoSViolations)
}
