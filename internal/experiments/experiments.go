// Package experiments regenerates every table and figure of the evaluation
// section (Section 8) of Shestak et al. (IPPS 2005), plus the extension and
// ablation studies indexed in DESIGN.md section 4. It is the harness behind
// cmd/experiments and the repository-level benchmarks.
//
// Every study is the paper's protocol — generate a scenario instance from a
// per-run seed, run heuristics (and the LP bound) on it, aggregate over runs
// with 95% confidence intervals — so the protocol is written once, in eachRun,
// and a study is a plain function that supplies the per-run body: Figure3,
// Figure4, Figure5 and Timing (one shared heuristic panel), the PSG ablations
// (BiasSweep, SeedingStudy, PopulationSweep, WorthMixStudy), studies E10-E18,
// the disturbance studies (RunDynamicStudy, RunChaosStudy, RunOverloadStudy)
// and Robustness. Figure2 is the analytic-versus-simulated check of equation
// (5). Studies lists them all under their -exp names; Run executes one, or
// all.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/heuristics"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/simplex"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options control an experiment batch.
type Options struct {
	// Runs is the number of independent simulation runs averaged (the paper
	// used 100).
	Runs int
	// Seed makes the batch reproducible; run r uses Seed + r.
	Seed int64
	// PSG configures the GENITOR-based heuristics, PSG.Workers their
	// parallelism (every experiment is deterministic for any worker count).
	// Zero value means the paper defaults (population 250, bias 1.6, 5000
	// iterations, stall 300, 4 trials) — expensive; cmd/experiments exposes
	// lighter budgets.
	PSG heuristics.PSGConfig
	// Strings overrides the scenario's string count when nonzero (reduced-
	// scale runs).
	Strings int
	// WorthWeights overrides the worth mixing proportions when non-nil.
	WorthWeights []float64
	// SkipUB drops the LP upper-bound series.
	SkipUB bool
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
}

// WithDefaults returns a copy of the options with every zero-valued field
// replaced by its default: 10 runs (a lighter budget than the paper's 100),
// and the paper's PSG configuration when none is set. Value receiver — the
// original is never mutated. Matches the Validate/WithDefaults pattern shared
// by genitor.Config, heuristics.PSGConfig, and workload.Config; the shared
// run loop applies it, so the zero Options value is usable with every study.
func (o Options) WithDefaults() Options {
	if o.Runs == 0 {
		o.Runs = 10
	}
	if o.PSG.PopulationSize == 0 {
		o.PSG = heuristics.DefaultPSGConfig()
	}
	return o
}

// Validate reports option errors on the already-defaulted values (apply
// WithDefaults first, as the shared run loop does): the run count and
// string override must be sensible, the worth-weight override non-negative
// with a positive sum, and the PSG configuration valid.
func (o Options) Validate() error {
	if o.Runs < 1 {
		return fmt.Errorf("experiments: %d runs, want >= 1", o.Runs)
	}
	if o.Strings < 0 {
		return fmt.Errorf("experiments: string override %d, want >= 0", o.Strings)
	}
	if o.WorthWeights != nil {
		total := 0.0
		for _, w := range o.WorthWeights {
			if w < 0 {
				return fmt.Errorf("experiments: negative worth weight %v", w)
			}
			total += w
		}
		if total <= 0 {
			return fmt.Errorf("experiments: worth weights sum to %v", total)
		}
	}
	return o.PSG.Validate()
}

func (o Options) scenarioConfig(s workload.Scenario) workload.Config {
	cfg := workload.ScenarioConfig(s)
	if o.Strings > 0 {
		cfg.Strings = o.Strings
	}
	if o.WorthWeights != nil {
		cfg.WorthWeights = o.WorthWeights
	}
	return cfg
}

// Series is one bar of a figure: a named sample across runs.
type Series struct {
	Name   string
	Sample stats.Sample
}

// Figure is a regenerated table/figure: one row per heuristic (and the upper
// bound), averaged over runs with 95% confidence intervals.
type Figure struct {
	Title  string
	Metric string
	Series []Series
	Runs   int
	Notes  []string
}

// WriteTable renders the figure as a text table mirroring the paper's bar
// charts.
func (f *Figure) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%s\n", f.Title)
	fmt.Fprintf(w, "%-12s  %12s  %12s  %8s\n", "series", "mean "+f.Metric, "95% CI ±", "n")
	for _, s := range f.Series {
		fmt.Fprintf(w, "%-12s  %12.4g  %12.3g  %8d\n", s.Name, s.Sample.Mean(), s.Sample.CI95(), s.Sample.N())
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// Get returns the series with the given name and whether it exists. The
// explicit second value forces callers to handle a missing series (a typo'd
// name or a figure built with SkipUB) instead of dereferencing a silent nil.
func (f *Figure) Get(name string) (*Series, bool) {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i], true
		}
	}
	return nil, false
}

// add records v under the named series, appending the series on first use,
// so a figure's rows appear in the order its study first reports them.
func (f *Figure) add(name string, v float64) {
	s, ok := f.Get(name)
	if !ok {
		f.Series = append(f.Series, Series{Name: name})
		s = &f.Series[len(f.Series)-1]
	}
	s.Sample.Add(v)
}

// panelFigure is the experiment behind Figures 3-5 and the timing table: per
// run, every heuristic of heuristics.Names and (unless SkipUB) the relaxed LP
// bound for objective are executed on a scenario instance and contribute one
// number each. measure picks that number from the entry's objective value (a
// heuristic's worth or slackness, or the LP optimum) and the wall-clock
// seconds it took. incomplete counts heuristic runs that left strings
// unmapped.
func panelFigure(ctx context.Context, opts Options, scenario workload.Scenario, title, label, metric string,
	objective lp.Objective, measure func(value, secs float64) float64) (f *Figure, incomplete int, err error) {
	f = &Figure{Title: title, Metric: metric}
	cfg := opts.scenarioConfig(scenario)
	f.Runs, err = eachSystem(ctx, opts, cfg, label, func(run int, sys *model.System, pcfg heuristics.PSGConfig) error {
		for _, name := range heuristics.Names {
			start := time.Now()
			r := heuristics.Run(name, sys, pcfg)
			secs := time.Since(start).Seconds()
			value := r.Metric.Worth
			if objective == lp.MaximizeSlackness {
				value = r.Metric.Slackness
			}
			f.add(name, measure(value, secs))
			if r.NumMapped != len(sys.Strings) {
				incomplete++
			}
		}
		if opts.SkipUB {
			return nil
		}
		start := time.Now()
		b, err := lp.UpperBound(sys, lp.Config{Formulation: lp.Relaxed, Objective: objective})
		secs := time.Since(start).Seconds()
		if err != nil {
			return err
		}
		if b.Status != simplex.Optimal {
			return fmt.Errorf("experiments: %v UB %v on run %d", objective, b.Status, run)
		}
		f.add("UB", measure(b.Objective, secs))
		return nil
	})
	return f, incomplete, err
}

// worthFigure runs the partial-allocation experiment (Figures 3 and 4):
// total worth per heuristic plus the relaxed LP upper bound.
func worthFigure(ctx context.Context, opts Options, scenario workload.Scenario, title string) (*Figure, error) {
	f, _, err := panelFigure(ctx, opts, scenario, title, title, "total worth", lp.MaximizeWorth,
		func(value, _ float64) float64 { return value })
	f.Notes = append(f.Notes,
		fmt.Sprintf("%v, %d strings, worth levels {1,10,100}", scenario, opts.scenarioConfig(scenario).Strings),
		"UB is the relaxed (route-free) fractional-mapping LP: a valid upper bound; see EXPERIMENTS.md")
	return f, err
}

// Figure3 regenerates Figure 3: total worth for partial mapping in a highly
// loaded system (scenario 1).
func Figure3(ctx context.Context, opts Options) (*Figure, error) {
	return worthFigure(ctx, opts, workload.HighlyLoaded, "Figure 3: total worth, highly loaded system (scenario 1)")
}

// Figure4 regenerates Figure 4: total worth for partial mapping in a
// QoS-limited system (scenario 2).
func Figure4(ctx context.Context, opts Options) (*Figure, error) {
	return worthFigure(ctx, opts, workload.QoSLimited, "Figure 4: total worth, QoS-limited system (scenario 2)")
}

// Figure5 regenerates Figure 5: system slackness for complete mapping in a
// lightly loaded system (scenario 3).
func Figure5(ctx context.Context, opts Options) (*Figure, error) {
	title := "Figure 5: system slackness, lightly loaded system (scenario 3)"
	f, incomplete, err := panelFigure(ctx, opts, workload.LightlyLoaded, title, title, "slackness", lp.MaximizeSlackness,
		func(value, _ float64) float64 { return value })
	f.Notes = append(f.Notes,
		fmt.Sprintf("%v, %d strings", workload.LightlyLoaded, opts.scenarioConfig(workload.LightlyLoaded).Strings))
	if incomplete > 0 {
		f.Notes = append(f.Notes, fmt.Sprintf("%d heuristic runs did not map the full set", incomplete))
	}
	return f, err
}

// Timing regenerates the Section 8 execution-time comparison: wall-clock
// seconds per heuristic run plus the LP upper-bound computation, on
// scenario 1 instances.
func Timing(ctx context.Context, opts Options) (*Figure, error) {
	f, _, err := panelFigure(ctx, opts, workload.HighlyLoaded, "Section 8: heuristic execution time (seconds)",
		"timing", "seconds", lp.MaximizeWorth, func(_, secs float64) float64 { return secs })
	f.Notes = append(f.Notes,
		"paper: MWF/TF in seconds, PSG/Seeded PSG about two hours (2005 hardware), Lingo LP under two seconds")
	return f, err
}
