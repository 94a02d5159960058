// Quickstart: build a small shipboard system by hand, map it with the Most
// Worth First heuristic, inspect the two-stage feasibility analysis, and
// print the performance metric.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/model"
)

func main() {
	// Four machines, fully connected by 5 Mb/s routes.
	sys := model.NewUniformSystem(4, 5)

	// A high-worth sensing string: ingest -> filter -> classify, every 20 s,
	// end-to-end within 30 s. Each application is described by its nominal
	// execution time and nominal CPU utilization per machine (uniform here),
	// and the size of the data set it passes downstream.
	sys.AddString(model.AppString{
		Worth:      model.WorthHigh,
		Period:     20,
		MaxLatency: 30,
		Apps: []model.Application{
			model.UniformApp(4, 4.0, 0.6, 80), // ingest: 4 s, 60% CPU, 80 KB out
			model.UniformApp(4, 6.0, 0.8, 40), // filter
			model.UniformApp(4, 2.0, 0.5, 10), // classify
		},
	})
	// A medium-worth telemetry string.
	sys.AddString(model.AppString{
		Worth:      model.WorthMedium,
		Period:     15,
		MaxLatency: 25,
		Apps: []model.Application{
			model.UniformApp(4, 3.0, 0.4, 60),
			model.UniformApp(4, 5.0, 0.7, 20),
		},
	})
	// A low-worth logging string.
	sys.AddString(model.AppString{
		Worth:      model.WorthLow,
		Period:     30,
		MaxLatency: 60,
		Apps: []model.Application{
			model.UniformApp(4, 2.0, 0.3, 30),
		},
	})
	if err := sys.Validate(); err != nil {
		log.Fatal(err)
	}

	// Map strings most-worth-first; each string is placed by the Incremental
	// Mapping Routine and validated by the two-stage feasibility analysis.
	result := heuristics.MWF(sys)

	fmt.Printf("mapped %d of %d strings\n", result.NumMapped, len(sys.Strings))
	fmt.Printf("total worth:      %.0f of %.0f offered\n", result.Metric.Worth, sys.TotalWorth())
	fmt.Printf("system slackness: %.3f (minimum spare capacity across machines and routes)\n",
		result.Metric.Slackness)

	for k := range sys.Strings {
		if !result.Alloc.Complete(k) {
			fmt.Printf("string %d: not mapped\n", k)
			continue
		}
		fmt.Printf("string %d: machines %v, relative tightness %.3f, estimated latency %.2f s (limit %.0f s)\n",
			k, result.Alloc.StringMachines(k), result.Alloc.Tightness(k),
			result.Alloc.StringLatency(k), sys.Strings[k].MaxLatency)
	}

	// The allocation object answers sharing-aware "what if" questions too.
	alloc := result.Alloc
	fmt.Printf("machine 0 utilization: %.3f; adding string 0's filter would make it %.3f\n",
		alloc.MachineUtilization(0), alloc.MachineUtilizationIf(0, 0, 1))
	_ = feasibility.Unassigned // see the feasibility package for the full API
}
