// Survivability: the shipboard failure mode the paper's slackness metric
// ultimately guards against is losing resources, not just gaining workload.
// This example walks the full fault-tolerance lifecycle:
//
//  1. allocate a lightly loaded (scenario 3) system with MWF;
//  2. load a failure scenario from JSON: a compartment hit (machine 4 plus
//     every incident route) at t=30 repaired after 45 s, followed by a
//     permanent route loss at t=120;
//  3. replay the failure trace in the discrete-event simulator against the
//     unmodified allocation — in-flight work is lost, QoS violations pile up,
//     and data sets behind the permanent loss are stranded;
//  4. run the Survive failover controller against the scenario's collapsed
//     outage set and verify the repaired mapping is feasible, avoids every
//     failed resource, and reports how much worth it retained;
//  5. re-simulate the repaired allocation under the same trace: the failed
//     resources are no longer used, so nothing is lost or stranded.
//
// Run with: go run ./examples/survivability
package main

import (
	"fmt"
	"log"

	"repro/internal/dynamic"
	"repro/internal/faults"
	"repro/internal/heuristics"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	cfg := workload.ScenarioConfig(workload.LightlyLoaded)
	sys, err := workload.Generate(cfg, 23)
	if err != nil {
		log.Fatal(err)
	}
	r := heuristics.MWF(sys)
	fmt.Printf("initial allocation: %d/%d strings, worth %.0f, slackness %.3f\n",
		r.NumMapped, len(sys.Strings), r.Metric.Worth, r.Metric.Slackness)

	sc, err := faults.LoadFile("examples/survivability/compartment.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := sc.ValidateFor(sys); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nscenario %q: %d outage events\n", sc.Name, len(sc.Events))

	// 3. Replay the trace against the unmodified allocation.
	out, err := sim.Run(r.Alloc, sim.Config{Periods: 10, Failures: sc.Sorted()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("unrepaired run: %d QoS violations, %d data sets stranded\n",
		out.QoSViolations, out.Unfinished)
	for _, fs := range out.Failures {
		if fs.LostJobs+fs.LostTransfers == 0 {
			continue
		}
		fmt.Printf("  %v at %.0f s: lost %d jobs, %d transfers; %d/%d disrupted data sets recovered (latency %.2f s)\n",
			fs.Event.Resource, fs.Event.At, fs.LostJobs, fs.LostTransfers,
			fs.Recovered, fs.Disrupted, fs.RecoveryLatency)
	}

	// 4. Failover on the collapsed outage set (everything down at once).
	down := faults.SetFromScenario(sc, sys.Machines)
	res, err := dynamic.Survive(r.Alloc, down)
	if err != nil {
		log.Fatal(err)
	}
	mig, evi, rec := res.Counts()
	fmt.Printf("\nfailover: evacuated %d strings; %d migrations, %d evictions, %d reclaims\n",
		len(res.Evacuated), mig, evi, rec)
	fmt.Printf("worth retained: %.0f/%.0f (%.1f%%)   recovery cost: %.1f s   slackness after: %.3f\n",
		res.WorthAfter, res.WorthBefore, 100*res.Retained, res.CostSeconds, res.SlacknessAfter)
	if !res.Feasible || dynamic.UsesFailed(r.Alloc, down) {
		log.Fatal("failover left an infeasible or fault-exposed mapping")
	}

	// 5. The repaired mapping rides out the same trace untouched.
	out2, err := sim.Run(r.Alloc, sim.Config{Periods: 10, Failures: sc.Sorted()})
	if err != nil {
		log.Fatal(err)
	}
	lost := 0
	for _, fs := range out2.Failures {
		lost += fs.LostJobs + fs.LostTransfers
	}
	fmt.Printf("\nrepaired run: %d QoS violations, %d data sets stranded, %d in-flight losses\n",
		out2.QoSViolations, out2.Unfinished, lost)
}
