// Command experiments regenerates the tables and figures of Shestak et al.
// (IPPS 2005): Figures 2-5, the Section 8 timing comparison, Table 1, and the
// extension/ablation studies of DESIGN.md section 4. It is flags → Options →
// experiments.Run; the -exp names are the experiments.Studies registry.
//
// Examples:
//
//	experiments -exp fig3 -runs 10 -psg-iters 1000
//	experiments -exp all -runs 5 -psg-iters 500 -psg-trials 1
//	experiments -exp robustness -runs 10
//	experiments -exp table1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/heuristics"
	"repro/internal/report"
	"repro/internal/telemetry"
)

func main() {
	names := experiments.StudyNames()
	var (
		exp       = flag.String("exp", "all", "experiment: "+strings.Join(names, "|"))
		runs      = flag.Int("runs", 10, "simulation runs per experiment (paper: 100)")
		seed      = flag.Int64("seed", 1, "base RNG seed")
		strings_  = flag.Int("strings", 0, "override string count (0 = paper value)")
		psgIters  = flag.Int("psg-iters", 1000, "GENITOR iteration budget (paper: 5000)")
		psgPop    = flag.Int("psg-pop", 250, "GENITOR population size (paper: 250)")
		psgStall  = flag.Int("psg-stall", 300, "GENITOR elite-stall limit (paper: 300)")
		psgTrials = flag.Int("psg-trials", 2, "independent GENITOR trials, best-of (paper: 4)")
		psgBias   = flag.Float64("psg-bias", 1.6, "GENITOR selection bias (paper: 1.6)")
		workers   = flag.Int("workers", 0, "worker goroutines for the PSG search (0 = all cores); results are identical for any value")
		skipUB    = flag.Bool("skip-ub", false, "skip the LP upper-bound series")
		highHeavy = flag.Bool("high-heavy", false, "use the high-worth-heavy mix {0.1,0.2,0.7} instead of uniform")
		verbose   = flag.Bool("v", false, "print per-run progress to stderr")
		metrics   = flag.Bool("metrics", false, "collect telemetry and print the instrument snapshot after the batch")
		traceFile = flag.String("trace", "", "write a JSONL span/event trace to this file (implies -metrics)")
	)
	flag.Parse()
	if !slices.Contains(names, *exp) {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}

	opts := experiments.Options{
		Runs:    *runs,
		Seed:    *seed,
		Strings: *strings_,
		SkipUB:  *skipUB,
		PSG:     heuristics.DefaultPSGConfig(),
	}
	opts.PSG.Workers = *workers
	opts.PSG.MaxIterations = *psgIters
	opts.PSG.PopulationSize = *psgPop
	opts.PSG.StallLimit = *psgStall
	opts.PSG.Trials = *psgTrials
	opts.PSG.Bias = *psgBias
	if *highHeavy {
		opts.WorthWeights = []float64{0.1, 0.2, 0.7}
	}
	if *verbose {
		opts.Progress = os.Stderr
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *metrics || *traceFile != "" {
		reg := telemetry.Enable()
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			fatal(err)
			defer f.Close()
			sink := telemetry.NewJSONLSink(f)
			reg.SetSink(sink)
			defer sink.Flush()
		}
	}
	start := time.Now()
	if err := experiments.Run(ctx, os.Stdout, *exp, opts); errors.Is(err, experiments.ErrCanceled) {
		fmt.Fprintln(os.Stderr, "experiments: interrupted; the last table reports the completed runs only")
	} else {
		fatal(err)
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	if *metrics || *traceFile != "" {
		fmt.Println()
		report.WriteTelemetry(os.Stdout, telemetry.Capture())
		if *traceFile != "" {
			fmt.Printf("trace written to %s\n", *traceFile)
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
