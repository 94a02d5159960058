// Overload: the paper's slackness metric buys headroom against workload
// growth, but a shipboard demand surge — a fleet-wide alert doubling every
// sensor rate — can exhaust any finite margin. This example walks the
// overload-resilience lifecycle that picks up where the static analysis
// stops:
//
//  1. allocate a lightly loaded (scenario 3) system with MWF and note the
//     slackness it banked;
//  2. load a surge scenario from JSON: a fleet-wide 3x step at t=30 subsiding
//     at t=90, then a scoped 3x ramp on the first eight strings at t=120;
//  3. replay the surge in the discrete-event simulator against the unmodified
//     allocation — the surge scales job sizes and transfer volumes in place,
//     and QoS violations pile up while demand exceeds the banked slack;
//  4. run the worth-aware degradation controller over the same timeline: it
//     sheds the lowest worth-per-utilization strings when slackness falls
//     through the lower hysteresis threshold and re-admits them — bounded,
//     highest value density first — once slackness recovers above the upper
//     one;
//  5. print the controller's action record and verify the post-surge mapping
//     is feasible with every string re-admitted.
//
// Run with: go run ./examples/overload
package main

import (
	"fmt"
	"log"

	"repro/internal/heuristics"
	"repro/internal/overload"
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

	sc, err := overload.LoadFile("examples/overload/surge.json")
	if err != nil {
		log.Fatal(err)
	}
	if err := sc.Validate(len(sys.Strings)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsurge %q: %d events over a %.0f s horizon\n",
		sc.Name, len(sc.Events), sc.Horizon())

	// 3. Replay the surge against the unmodified allocation.
	out, err := sim.Run(r.Alloc, sim.Config{Periods: 40, Surge: sc})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("undegraded replay: %d QoS violations over %.0f simulated seconds\n",
		out.QoSViolations, out.Duration)

	// 4. Degradation controller over the same timeline.
	res, err := overload.Run(r.Alloc, sc, overload.Config{ShedBelow: 0.02, ReadmitAbove: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndegradation controller: %d shed, %d re-admitted, %d migrated\n",
		res.Shed, res.Readmitted, res.Migrated)
	for _, act := range res.Actions {
		fmt.Printf("  t=%5.1f  %-10s string %-3d (%s)\n", act.Time, act.Kind, act.StringID, act.Reason)
	}
	fmt.Printf("worth retained: %.0f/%.0f (%.1f%%, trough %.1f%%)\n",
		res.WorthAfter, res.WorthBefore, 100*res.Retained, 100*res.MinRetained)
	fmt.Printf("time over capacity: %.1f s   slackness after: %.3f\n",
		res.TimeOverCapacity, res.SlacknessAfter)

	// 5. The timeline ends with the surge subsided: the controller must have
	// re-admitted everything it shed into a feasible mapping.
	if !res.Feasible {
		log.Fatal("degradation controller left an infeasible mapping")
	}
	if res.Retained < 1 {
		fmt.Println("note: some worth was not re-admitted by the end of the settle window")
	}
	fmt.Println("\npost-surge mapping is two-stage feasible")
}
