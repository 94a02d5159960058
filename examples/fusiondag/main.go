// Fusion DAG: the paper's string model covers linear pipelines, and its
// Section 2 footnote anticipates that "the final ARMS program may include
// DAGs of applications". This example exercises the DAG extension (the dag
// package beside it, this example's library): a track-fusion task where sonar
// and radar branches join into a correlator and fan out to a display and a
// weapons interface — a graph no linear string can express.
//
//	sonar ingest -> beamform ----\
//	                              > correlate -> display
//	radar ingest -> filter ------/          \-> weapons
//
// The example maps a small fleet of such tasks with the DAG heuristics,
// compares MWF/TF/PSG/SeededPSG, and reports the critical-path latencies the
// generalized analysis certifies.
//
// Run with: go run ./examples/fusiondag
package main

import (
	"fmt"
	"log"

	"repro/examples/fusiondag/dag"
	"repro/internal/genitor"
	"repro/internal/model"
)

func fusionTask(m int, worth, period, lmax, scale float64) dag.Task {
	mk := func(tSec, util float64) dag.Node {
		n := dag.Node{NominalTime: make([]float64, m), NominalUtil: make([]float64, m)}
		for j := 0; j < m; j++ {
			// Mild heterogeneity: later machines are slower.
			n.NominalTime[j] = tSec * scale * (1 + 0.15*float64(j))
			n.NominalUtil[j] = util
		}
		return n
	}
	return dag.Task{
		Worth: worth, Period: period, MaxLatency: lmax,
		Nodes: []dag.Node{
			mk(1.5, 0.6), // 0 sonar ingest
			mk(2.5, 0.8), // 1 beamform
			mk(1.0, 0.5), // 2 radar ingest
			mk(1.8, 0.7), // 3 clutter filter
			mk(2.0, 0.6), // 4 correlate (fusion point)
			mk(0.8, 0.3), // 5 display
			mk(0.6, 0.4), // 6 weapons interface
		},
		Edges: []dag.Edge{
			{From: 0, To: 1, OutputKB: 300},
			{From: 1, To: 4, OutputKB: 120},
			{From: 2, To: 3, OutputKB: 200},
			{From: 3, To: 4, OutputKB: 90},
			{From: 4, To: 5, OutputKB: 60},
			{From: 4, To: 6, OutputKB: 40},
		},
	}
}

func main() {
	const machines = 5
	sys := &dag.System{Machines: machines, Bandwidth: model.UniformBandwidth(machines, 4)}
	sys.AddTask(fusionTask(machines, model.WorthHigh, 10, 25, 1.0))
	sys.AddTask(fusionTask(machines, model.WorthHigh, 8, 20, 0.8))
	sys.AddTask(fusionTask(machines, model.WorthMedium, 15, 40, 1.2))
	sys.AddTask(fusionTask(machines, model.WorthMedium, 12, 30, 1.0))
	sys.AddTask(fusionTask(machines, model.WorthLow, 30, 90, 1.5))
	if err := sys.Validate(); err != nil {
		log.Fatal(err)
	}

	cfg := genitor.Config{PopulationSize: 50, Bias: 1.6, MaxIterations: 300, StallLimit: 100, Seed: 5}
	fmt.Printf("fusion fleet: %d tasks (%d nodes each), %d machines, offered worth %.0f\n\n",
		len(sys.Tasks), len(sys.Tasks[0].Nodes), machines, sys.TotalWorth())
	fmt.Printf("%-10s  %8s  %10s  %8s\n", "heuristic", "mapped", "worth", "slack")
	var best *dag.Result
	for _, run := range []func() *dag.Result{
		func() *dag.Result { return dag.MWF(sys) },
		func() *dag.Result { return dag.TF(sys) },
		func() *dag.Result { return dag.PSG(sys, cfg, false) },
		func() *dag.Result { return dag.PSG(sys, cfg, true) },
	} {
		r := run()
		fmt.Printf("%-10s  %5d/%d  %10.0f  %8.3f\n", r.Name, r.NumMapped, len(sys.Tasks), r.Worth, r.Slackness)
		if best == nil || r.Worth > best.Worth || (r.Worth == best.Worth && r.Slackness > best.Slackness) {
			best = r
		}
	}

	fmt.Printf("\nbest mapping (%s):\n", best.Name)
	names := []string{"sonar", "beamform", "radar", "filter", "correlate", "display", "weapons"}
	for t := range sys.Tasks {
		if !best.Alloc.Complete(t) {
			fmt.Printf("  task %d: not mapped\n", t)
			continue
		}
		fmt.Printf("  task %d (worth %3.0f): critical path %.2f s of %.0f s allowed; placement:",
			t, sys.Tasks[t].Worth, best.Alloc.TaskLatency(t), sys.Tasks[t].MaxLatency)
		for i := range sys.Tasks[t].Nodes {
			fmt.Printf(" %s->m%d", names[i], best.Alloc.Machine(t, i))
		}
		fmt.Println()
	}
}
