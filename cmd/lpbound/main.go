// Command lpbound computes the Section 7 linear-programming upper bound for
// a TSCE scenario: the fractional-mapping optimum that dominates every
// integral allocation, in either the paper's full formulation (x and y
// variables, constraints (a)-(g)) or the relaxed route-free formulation that
// remains tractable at the paper's full scale.
//
// Examples:
//
//	lpbound -scenario 1 -seed 1                        # worth UB, relaxed
//	lpbound -scenario 3 -objective slackness           # slackness UB
//	lpbound -scenario 3 -form full -objective slackness
//	lpbound -in system.json -objective worth
//	lpbound -scenario 1 -rescale 1.2 -warm             # warm-started re-solve
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/dynamic"
	"repro/internal/lp"
	"repro/internal/simplex"
	"repro/internal/workload"
)

func main() {
	var (
		scenario  = flag.Int("scenario", 1, "paper scenario to generate: 1, 2 or 3")
		seed      = flag.Int64("seed", 1, "workload RNG seed")
		strings_  = flag.Int("strings", 0, "override string count (0 = paper value)")
		inFile    = flag.String("in", "", "load the system from a JSON file instead of generating (read strictly: an unknown, repeated or misspelt field and any trailing byte are refused, with the offset)")
		objective = flag.String("objective", "", "worth | slackness (default: worth for scenarios 1-2, slackness for 3)")
		form      = flag.String("form", "relaxed", "full | relaxed (full is for small ships: scenario 3 at its paper size, 2 769 rows x 16 524 columns, solves in 12-19 s on a 2-vCPU VM; scenarios 1-2, 18 019 x 112 404, do not finish in 150 s)")
		literal   = flag.Bool("literal-objective", false, "use the paper's printed per-application worth objective")
		maxVars   = flag.Int("max-vars", 0, "variable-count guard (0 = default 400000)")
		fractions = flag.Bool("fractions", false, "print per-string mapped fractions")
		shadow    = flag.Bool("shadow", false, "print per-machine capacity shadow prices (bottleneck report)")
		rescale   = flag.Float64("rescale", 0, "re-solve after uniformly scaling every string's demand by this factor (0 = off)")
		warm      = flag.Bool("warm", false, "warm-start the -rescale re-solve from the base optimal basis and report the pivot savings")
	)
	flag.Parse()

	obj := lp.MaximizeWorth
	switch *objective {
	case "worth":
	case "slackness":
		obj = lp.MaximizeSlackness
	case "":
		if *scenario == 3 && *inFile == "" {
			obj = lp.MaximizeSlackness
		}
	default:
		refuse("unknown -objective %q (want worth or slackness)", *objective)
	}
	formulation := lp.Relaxed
	switch *form {
	case "relaxed":
	case "full":
		formulation = lp.Full
	default:
		refuse("unknown -form %q (want full or relaxed)", *form)
	}
	if *rescale < 0 || math.IsNaN(*rescale) || math.IsInf(*rescale, 0) {
		refuse("-rescale %v: want a positive demand factor, or 0 for no re-solve", *rescale)
	}
	if *warm && *rescale == 0 {
		refuse("-warm needs -rescale: it warm-starts the re-solve at a positive demand factor")
	}

	sys, err := workload.LoadSystem(*inFile, *scenario, *seed, *strings_)
	fatal(err)

	start := time.Now()
	b, err := lp.UpperBound(sys, lp.Config{
		Formulation:      formulation,
		Objective:        obj,
		LiteralObjective: *literal,
		MaxVariables:     *maxVars,
	})
	fatal(err)
	elapsed := time.Since(start)

	fmt.Printf("system: %d machines, %d strings, %d applications, total worth %.0f\n",
		sys.Machines, len(sys.Strings), sys.NumApps(), sys.TotalWorth())
	fmt.Printf("LP: %v formulation, %v objective, %d variables, %d constraints\n",
		formulation, obj, b.Variables, b.Constraints)
	fmt.Printf("status: %v (%d simplex iterations, %v)\n", b.Status, b.Iterations, elapsed.Round(time.Millisecond))
	if b.Status != simplex.Optimal {
		os.Exit(1)
	}
	switch obj {
	case lp.MaximizeWorth:
		fmt.Printf("upper bound on total worth: %.4f\n", b.Objective)
	case lp.MaximizeSlackness:
		fmt.Printf("upper bound on system slackness: %.6f\n", b.Objective)
	}
	if *fractions {
		fmt.Println("per-string mapped fractions:")
		for k, f := range b.StringFraction {
			fmt.Printf("  S%-4d worth %3.0f  fraction %.4f\n", k, sys.Strings[k].Worth, f)
		}
	}
	if *shadow {
		fmt.Println("machine capacity shadow prices (objective gain per unit capacity):")
		for j, sp := range b.MachineShadowPrice {
			fmt.Printf("  machine %-3d %.4f\n", j, sp)
		}
	}

	if *rescale > 0 {
		scaled, err := dynamic.ScaleWorkload(sys, *rescale)
		fatal(err)
		cfg := lp.Config{
			Formulation:      formulation,
			Objective:        obj,
			LiteralObjective: *literal,
			MaxVariables:     *maxVars,
		}
		if *warm {
			cfg.WarmBasis = b.Basis
		}
		start := time.Now()
		rb, err := lp.UpperBound(scaled, cfg)
		fatal(err)
		elapsed := time.Since(start)
		path := "cold"
		if rb.WarmStarted {
			path = "warm (basis reused)"
		} else if *warm {
			path = fmt.Sprintf("cold (warm basis refused: %v)", rb.WarmRefusal)
		}
		fmt.Printf("re-solve at demand x%.3g: %v, bound %.4f, %d iterations, %v, %s\n",
			*rescale, rb.Status, rb.Objective, rb.Iterations, elapsed.Round(time.Millisecond), path)
		if *warm && rb.WarmStarted {
			fmt.Printf("warm start saved %d of the base solve's %d pivots\n", b.Iterations-rb.Iterations, b.Iterations)
		}
	}
}

// refuse reports a flag value lpbound cannot act on and exits 2, as the flag
// package does for a malformed one.
func refuse(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lpbound: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpbound:", err)
		os.Exit(1)
	}
}
