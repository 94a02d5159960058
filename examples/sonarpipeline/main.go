// Sonar pipeline: a hand-modeled slice of the shipboard workload the paper's
// introduction motivates — continuously running sensor-to-actuator strings
// with hard throughput and end-to-end latency constraints, competing for a
// heterogeneous machine suite.
//
// Strings modeled (periods/latencies loosely inspired by the AN/SQQ-89-class
// processing chains the authors' biographies mention):
//
//	sonar track:    hydrophone ingest -> beamform -> detect -> classify -> track
//	radar track:    radar ingest -> clutter filter -> track
//	EW warning:     ESM ingest -> emitter match   (tightest: short latency)
//	engagement:     track fusion -> weapons solution -> display
//	maintenance:    sensor health logging          (lowest worth)
//
// The example maps the strings with Seeded PSG, prints who landed where, and
// replays the allocation in the discrete-event simulator to confirm zero QoS
// violations at the planned workload.
//
// Run with: go run ./examples/sonarpipeline
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/sim"
)

func main() {
	const machines = 6
	sys := model.NewUniformSystem(machines, 0)
	// Heterogeneous backbone: 2-8 Mb/s depending on the route.
	rng := rand.New(rand.NewSource(42))
	for j1 := 0; j1 < machines; j1++ {
		for j2 := 0; j2 < machines; j2++ {
			if j1 != j2 {
				sys.Bandwidth[j1][j2] = 2 + 6*rng.Float64()
			}
		}
	}

	// hetApp builds an application whose speed differs across the machine
	// suite: machines 0-1 are signal-processor class (fast for DSP-heavy
	// stages), 2-3 general purpose, 4-5 older display/console machines.
	hetApp := func(baseSec, util, outKB float64, dspAffinity bool) model.Application {
		a := model.Application{
			NominalTime: make([]float64, machines),
			NominalUtil: make([]float64, machines),
			OutputKB:    outKB,
		}
		for j := 0; j < machines; j++ {
			factor := 1.0
			switch {
			case j < 2:
				if dspAffinity {
					factor = 0.5
				} else {
					factor = 0.9
				}
			case j < 4:
				factor = 1.0
			default:
				if dspAffinity {
					factor = 2.0
				} else {
					factor = 1.3
				}
			}
			a.NominalTime[j] = baseSec * factor
			a.NominalUtil[j] = util
		}
		return a
	}

	sys.AddString(model.AppString{ // sonar track
		Worth: model.WorthHigh, Period: 8, MaxLatency: 24,
		Apps: []model.Application{
			hetApp(2.0, 0.7, 400, true), // hydrophone ingest
			hetApp(3.0, 0.9, 200, true), // beamform
			hetApp(1.5, 0.6, 80, true),  // detect
			hetApp(1.0, 0.5, 30, false), // classify
			hetApp(0.8, 0.4, 20, false), // track
		},
	})
	sys.AddString(model.AppString{ // radar track
		Worth: model.WorthHigh, Period: 5, MaxLatency: 12,
		Apps: []model.Application{
			hetApp(1.2, 0.6, 250, true),
			hetApp(1.6, 0.8, 100, true),
			hetApp(0.7, 0.4, 40, false),
		},
	})
	sys.AddString(model.AppString{ // EW warning: tightest chain in the system
		Worth: model.WorthHigh, Period: 3, MaxLatency: 5,
		Apps: []model.Application{
			hetApp(0.8, 0.5, 60, true),
			hetApp(0.9, 0.6, 20, false),
		},
	})
	sys.AddString(model.AppString{ // engagement support
		Worth: model.WorthMedium, Period: 10, MaxLatency: 30,
		Apps: []model.Application{
			hetApp(2.0, 0.5, 120, false),
			hetApp(2.5, 0.6, 60, false),
			hetApp(1.0, 0.3, 200, false),
		},
	})
	sys.AddString(model.AppString{ // maintenance logging
		Worth: model.WorthLow, Period: 30, MaxLatency: 120,
		Apps: []model.Application{
			hetApp(3.0, 0.3, 500, false),
			hetApp(2.0, 0.2, 100, false),
		},
	})
	if err := sys.Validate(); err != nil {
		log.Fatal(err)
	}

	cfg := heuristics.DefaultPSGConfig()
	cfg.MaxIterations = 400
	cfg.Trials = 2
	cfg.Seed = 7
	r := heuristics.Run("SeededPSG", sys, cfg)

	names := []string{"sonar track", "radar track", "EW warning", "engagement", "maintenance"}
	fmt.Printf("Seeded PSG mapped %d/%d strings; worth %.0f, slackness %.3f\n\n",
		r.NumMapped, len(sys.Strings), r.Metric.Worth, r.Metric.Slackness)
	for k, name := range names {
		if !r.Alloc.Complete(k) {
			fmt.Printf("%-12s  NOT MAPPED\n", name)
			continue
		}
		fmt.Printf("%-12s  machines %v  latency %.2f/%.0f s  tightness %.3f\n",
			name, r.Alloc.StringMachines(k), r.Alloc.StringLatency(k),
			sys.Strings[k].MaxLatency, r.Alloc.Tightness(k))
	}

	fmt.Print("\nmachine utilization:")
	for j := 0; j < machines; j++ {
		fmt.Printf(" %.2f", r.Alloc.MachineUtilization(j))
	}
	fmt.Println()

	// Replay the mapping in the discrete-event simulator: a mapping that
	// passed the two-stage analysis should run violation-free.
	res, err := sim.Run(r.Alloc, sim.Config{Periods: 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated %d events over %.0f s: %d QoS violations\n",
		res.Events, res.Duration, res.QoSViolations)
	for k, name := range names {
		if r.Alloc.Complete(k) {
			fmt.Printf("%-12s  mean latency %.2f s (max %.2f, limit %.0f)\n",
				name, res.Strings[k].MeanLatency, res.Strings[k].MaxLatency, sys.Strings[k].MaxLatency)
		}
	}
}
