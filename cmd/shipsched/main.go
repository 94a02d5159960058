// Command shipsched runs a resource-allocation heuristic on a TSCE scenario
// and reports the resulting mapping, the two-component performance metric
// (total worth, system slackness), per-resource utilizations, and — with
// -simulate — a discrete-event replay that validates the allocation's QoS
// behaviour at the planned workload.
//
// Scenarios come from the paper's generator (-scenario 1|2|3 with -seed) or
// from a JSON system description (-in). Use -save to write a generated
// scenario to disk for later reuse.
//
// Fault mode: -faults loads a JSON failure scenario (see internal/faults) and
// -fail-machines injects permanent compartment hits on the listed machines.
// Either one triggers a failover analysis — the Survive controller evacuates
// and repairs the mapping on the surviving suite — and, combined with
// -simulate, replays the failure trace against the original allocation in the
// discrete-event simulator.
//
// Surge mode: -surge loads a JSON demand-surge scenario (see internal/overload)
// and runs the worth-aware degradation controller over its timeline, shedding
// and re-admitting strings inside the -shed-below/-readmit-above hysteresis
// band. Combined with -faults the controller walks outages and surges on one
// timeline; combined with -simulate the surge also scales the replayed
// workload.
//
// Examples:
//
//	shipsched -scenario 2 -seed 7 -heuristic SeededPSG -psg-iters 500
//	shipsched -scenario 3 -heuristic MWF -simulate -scale 1.5
//	shipsched -in system.json -heuristic TF -dump
//	shipsched -scenario 3 -heuristic MWF -fail-machines 2,5
//	shipsched -scenario 3 -heuristic MWF -faults examples/survivability/compartment.json -simulate
//	shipsched -scenario 3 -heuristic MWF -surge examples/overload/surge.json -simulate
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro/internal/dynamic"
	"repro/internal/faults"
	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/overload"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	var (
		scenario  = flag.Int("scenario", 1, "paper scenario to generate: 1 (highly loaded), 2 (QoS-limited), 3 (lightly loaded)")
		seed      = flag.Int64("seed", 1, "workload RNG seed")
		strings_  = flag.Int("strings", 0, "override string count (0 = paper value)")
		inFile    = flag.String("in", "", "load the system from a JSON file instead of generating (read strictly: an unknown, repeated or misspelt field and any trailing byte are refused, with the offset)")
		saveFile  = flag.String("save", "", "save the (generated) system to a JSON file")
		heuristic = flag.String("heuristic", "SeededPSG", "heuristic: MWF | TF | PSG | SeededPSG | SSG | ClassedPSG")
		psgIters  = flag.Int("psg-iters", 1000, "GENITOR iteration budget (paper: 5000)")
		psgTrials = flag.Int("psg-trials", 2, "GENITOR trials, best-of (paper: 4)")
		workers   = flag.Int("workers", 0, "worker goroutines for the PSG search (0 = all cores); results are identical for any value")
		simulate  = flag.Bool("simulate", false, "replay the allocation in the discrete-event simulator")
		scale     = flag.Float64("scale", 1.0, "workload scale for -simulate (1 = planned workload)")
		periods   = flag.Int("periods", 10, "data sets per string for -simulate")
		dump      = flag.Bool("dump", false, "print the full application-to-machine mapping")
		faultFile = flag.String("faults", "", "load a JSON failure scenario and run the failover analysis")
		failMach  = flag.String("fail-machines", "", "comma-separated machines hit by permanent compartment losses")
		surgeFile = flag.String("surge", "", "load a JSON demand-surge scenario and run the degradation controller")
		shedBelow = flag.Float64("shed-below", 0, "degradation controller: shed while slackness is below this")
		readmitAb = flag.Float64("readmit-above", 0, "degradation controller: re-admit shed strings only above this slackness (0 = default 0.05)")
		metrics   = flag.Bool("metrics", false, "collect telemetry and print the instrument snapshot")
		traceFile = flag.String("trace", "", "write a JSONL span/event trace to this file (implies -metrics)")
		ckptFile  = flag.String("checkpoint", "", "write an interrupted search's full state to this JSON file (resume with -resume)")
		resume    = flag.String("resume", "", "resume an interrupted search from a checkpoint file; the system and search configuration come from the file")
		deadline  = flag.Duration("deadline", 0, "wall-clock budget for this run's search (e.g. 30s); an expired search stops resumably, like SIGINT — combine with -checkpoint")
	)
	flag.Parse()

	// SIGINT, or -deadline expiring, cancels the search cooperatively: the
	// GENITOR trials stop at the next iteration and the best partial mapping
	// found so far is reported.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var traceSink *telemetry.JSONLSink
	if *metrics || *traceFile != "" {
		reg := telemetry.Enable()
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			fatal(err)
			defer f.Close()
			traceSink = telemetry.NewJSONLSink(f)
			reg.SetSink(traceSink)
			defer traceSink.Flush()
		}
	}

	var (
		sys   *model.System
		prior *heuristics.SearchCheckpoint
		cfg   = heuristics.DefaultPSGConfig()
		err   error
	)
	if *resume != "" {
		cpf, ferr := loadCheckpoint(*resume)
		fatal(ferr)
		sys, prior = cpf.System, cpf.Search
		fmt.Printf("resuming %s search from %s (%d/%d trials unfinished)\n",
			prior.Heuristic, *resume, prior.Interrupted(), len(prior.Trials))
	} else {
		sys, err = workload.LoadSystem(*inFile, *scenario, *seed, *strings_)
		fatal(err)
		if *saveFile != "" {
			fatal(sys.SaveFile(*saveFile))
			fmt.Printf("saved system to %s\n", *saveFile)
		}
		cfg.MaxIterations = *psgIters
		cfg.Trials = *psgTrials
		cfg.Seed = *seed
		cfg.Workers = *workers
	}
	// -deadline bounds the search alone, not loading or generating the system.
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	var (
		r     *heuristics.Result
		scp   *heuristics.SearchCheckpoint
		start = time.Now()
	)
	if prior != nil {
		r, scp, err = heuristics.ResumeSearch(ctx, sys, prior)
	} else {
		r, scp, err = heuristics.RunContext(ctx, *heuristic, sys, cfg)
	}
	elapsed := time.Since(start)
	canceled := errors.Is(err, heuristics.ErrCanceled)
	if err != nil && !canceled {
		fatal(err)
	}
	if canceled {
		fmt.Println("interrupted: reporting the best partial mapping found so far")
	}
	if scp != nil {
		if *ckptFile != "" {
			fatal(saveCheckpoint(*ckptFile, sys, scp))
			fmt.Printf("search interrupted with %d/%d trials unfinished; checkpoint written to %s\n",
				scp.Interrupted(), len(scp.Trials), *ckptFile)
		} else {
			fmt.Printf("search interrupted with %d/%d trials unfinished (add -checkpoint FILE to make such runs resumable)\n",
				scp.Interrupted(), len(scp.Trials))
		}
	}

	fmt.Printf("system: %d machines, %d strings, %d applications, total worth %.0f\n",
		sys.Machines, len(sys.Strings), sys.NumApps(), sys.TotalWorth())
	fmt.Printf("%s: mapped %d/%d strings in %v\n", r.Name, r.NumMapped, len(sys.Strings), elapsed.Round(time.Millisecond))
	fmt.Printf("total worth: %.0f   system slackness: %.4f\n", r.Metric.Worth, r.Metric.Slackness)
	if r.Iterations > 0 {
		fmt.Printf("GENITOR: %d iterations, %d evaluations, stopped by %s\n", r.Iterations, r.Evaluations, r.StopReason)
	}
	if !r.Alloc.TwoStageFeasible() {
		fmt.Println("WARNING: final mapping fails the two-stage analysis (bug)")
		os.Exit(1)
	}
	printUtilization(r.Alloc)
	if *dump {
		fmt.Println()
		report.Write(os.Stdout, r.Alloc)
	}
	faultSc, err := loadFaults(*faultFile, *failMach, sys.Machines)
	fatal(err)
	if faultSc != nil {
		fatal(faultSc.ValidateFor(sys))
		runFailover(r, faultSc)
	}
	var surgeSc *overload.Scenario
	if *surgeFile != "" {
		surgeSc, err = overload.LoadFile(*surgeFile)
		fatal(err)
		fatal(surgeSc.Validate(len(sys.Strings)))
		runDegradation(r, surgeSc, faultSc, *shedBelow, *readmitAb)
	}
	if *simulate {
		simCfg := sim.Config{Periods: *periods, WorkloadScale: *scale, Surge: surgeSc}
		if faultSc != nil {
			simCfg.Failures = faultSc.Sorted()
		}
		res, err := sim.Run(r.Alloc, simCfg)
		fatal(err)
		fmt.Printf("\nsimulation: scale %.2f, %d data sets per string, %d events, %.1f s simulated\n",
			*scale, *periods, res.Events, res.Duration)
		fmt.Printf("QoS violations: %d\n", res.QoSViolations)
		worst := 0.0
		for k := range res.Strings {
			if res.Strings[k].MaxLatency > worst {
				worst = res.Strings[k].MaxLatency
			}
		}
		fmt.Printf("worst end-to-end latency: %.3f s\n", worst)
		if faultSc != nil {
			if res.Unfinished > 0 {
				fmt.Printf("data sets stranded by permanent failures: %d\n", res.Unfinished)
			}
			quiet := 0
			for _, fs := range res.Failures {
				if fs.LostJobs == 0 && fs.LostTransfers == 0 && fs.Disrupted == 0 {
					quiet++
					continue
				}
				fmt.Printf("failure %v at %.1f s: lost %d jobs, %d transfers; %d/%d disrupted data sets recovered",
					fs.Event.Resource, fs.Event.At, fs.LostJobs, fs.LostTransfers, fs.Recovered, fs.Disrupted)
				if fs.Recovered > 0 && !fs.Event.Permanent() {
					fmt.Printf(" (recovery latency %.2f s)", fs.RecoveryLatency)
				}
				fmt.Println()
			}
			if quiet > 0 {
				fmt.Printf("%d injected outages disturbed no in-flight work\n", quiet)
			}
		}
	}
	if *metrics || *traceFile != "" {
		snap := telemetry.Capture()
		fmt.Println()
		report.WriteTelemetry(os.Stdout, snap)
		if evals := snap.Counter("feasibility.delta.evals"); evals > 0 && elapsed.Seconds() > 0 {
			fmt.Printf("  %-42s %12.0f\n", "feasibility evaluations/sec",
				float64(evals)/elapsed.Seconds())
		}
		if traceSink != nil {
			fmt.Printf("trace written to %s\n", *traceFile)
		}
	}
}

// checkpointFile is the on-disk format of -checkpoint/-resume: the search
// state plus the full system it ran against, so a resume needs nothing but
// the file.
type checkpointFile struct {
	System *model.System                `json:"system"`
	Search *heuristics.SearchCheckpoint `json:"search"`
}

func saveCheckpoint(path string, sys *model.System, scp *heuristics.SearchCheckpoint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(checkpointFile{System: sys, Search: scp}); err != nil {
		return err
	}
	return f.Close()
}

func loadCheckpoint(path string) (*checkpointFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var cpf checkpointFile
	if err := json.NewDecoder(f).Decode(&cpf); err != nil {
		return nil, fmt.Errorf("decoding checkpoint %s: %w", path, err)
	}
	if cpf.System == nil || cpf.Search == nil {
		return nil, fmt.Errorf("checkpoint %s is missing the system or search state", path)
	}
	return &cpf, nil
}

// loadFaults builds the failure scenario from -faults and/or -fail-machines.
func loadFaults(faultFile, failMach string, machines int) (*faults.Scenario, error) {
	var sc *faults.Scenario
	if faultFile != "" {
		loaded, err := faults.LoadFile(faultFile)
		if err != nil {
			return nil, err
		}
		sc = loaded
	}
	if failMach != "" {
		if sc == nil {
			sc = &faults.Scenario{Name: "fail-machines"}
		}
		for _, field := range strings.Split(failMach, ",") {
			j, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil {
				return nil, fmt.Errorf("bad -fail-machines entry %q: %w", field, err)
			}
			sc.Events = append(sc.Events, faults.CompartmentHit(machines, j, 0, 0)...)
		}
	}
	return sc, nil
}

// runFailover reports the Survive controller's repair of the mapping against
// the scenario's collapsed outage set (every listed resource down at once).
func runFailover(r *heuristics.Result, sc *faults.Scenario) {
	sys := r.Alloc.System()
	down := faults.SetFromScenario(sc, sys.Machines)
	alloc := r.Alloc.Clone()
	res, err := dynamic.Survive(alloc, down)
	fatal(err)
	mig, evi, rec := res.Counts()
	fmt.Printf("\nfailover: %d machines and %d routes down (scenario %q)\n",
		down.MachinesDown(), down.RoutesDown(), sc.Name)
	fmt.Printf("evacuated %d strings; %d migrations, %d evictions, %d reclaims\n",
		len(res.Evacuated), mig, evi, rec)
	fmt.Printf("worth retained: %.0f/%.0f (%.1f%%)   recovery cost: %.1f s   slackness after: %.4f\n",
		res.WorthAfter, res.WorthBefore, 100*res.Retained, res.CostSeconds, res.SlacknessAfter)
	if !res.Feasible || dynamic.UsesFailed(alloc, down) {
		fmt.Println("WARNING: failover left an infeasible or fault-exposed mapping (bug)")
		os.Exit(1)
	}
}

// runDegradation walks the surge timeline (optionally composed with the
// failure scenario) with the worth-aware degradation controller and reports
// its shed/re-admit record.
func runDegradation(r *heuristics.Result, sc *overload.Scenario, faultSc *faults.Scenario, shedBelow, readmitAbove float64) {
	res, err := overload.Run(r.Alloc, sc, overload.Config{
		ShedBelow:    shedBelow,
		ReadmitAbove: readmitAbove,
		Faults:       faultSc,
	})
	fatal(err)
	fmt.Printf("\ndegradation: surge %q, %d events over a %.0f s horizon\n",
		sc.Name, len(sc.Events), sc.Horizon())
	fmt.Printf("actions: %d shed, %d re-admitted, %d migrated   time over capacity: %.1f s\n",
		res.Shed, res.Readmitted, res.Migrated, res.TimeOverCapacity)
	fmt.Printf("worth retained: %.0f/%.0f (%.1f%%, trough %.1f%%)   slackness after: %.4f\n",
		res.WorthAfter, res.WorthBefore, 100*res.Retained, 100*res.MinRetained, res.SlacknessAfter)
	if !res.Feasible {
		fmt.Println("WARNING: degradation controller left an infeasible mapping (bug)")
		os.Exit(1)
	}
}

func printUtilization(a *feasibility.Allocation) {
	sys := a.System()
	fmt.Print("machine utilization:")
	for j := 0; j < sys.Machines; j++ {
		fmt.Printf(" %.2f", a.MachineUtilization(j))
	}
	fmt.Println()
	bu := -1.0
	var bj1, bj2 int
	a.ActiveRoutes(func(j1, j2 int, u float64) {
		if u > bu {
			bu, bj1, bj2 = u, j1, j2
		}
	})
	if bu >= 0 {
		fmt.Printf("busiest route: %d -> %d at %.2f\n", bj1, bj2, bu)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "shipsched:", err)
		os.Exit(1)
	}
}
