package experiments

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ErrCanceled is returned by a study whose context ended the batch early;
// the result covers the runs completed so far (its Runs field says how
// many). It wraps context.Canceled, so errors.Is(err, context.Canceled) also
// holds.
var ErrCanceled = fmt.Errorf("experiments: study canceled: %w", context.Canceled)

// eachRun is the Section 8 protocol every study shares, written once: default
// and validate the options, then for run r derive the workload seed Seed + r
// and the PSG configuration keyed to it, call body, and report progress under
// label. The context is polled between runs, and a body that fails with a
// cancellation (a search it threaded the context into gave up) counts as one
// too: either way the batch ends with ErrCanceled. completed counts the runs
// whose body returned nil: the sample size of the (possibly partial) result.
func eachRun(ctx context.Context, opts Options, label string,
	body func(run int, seed int64, pcfg heuristics.PSGConfig) error) (completed int, err error) {
	opts = opts.WithDefaults()
	if err := opts.Validate(); err != nil {
		return 0, err
	}
	for run := 0; run < opts.Runs; run++ {
		if ctx.Err() != nil {
			return run, ErrCanceled
		}
		seed := opts.Seed + int64(run)
		pcfg := opts.PSG
		// One search seed per workload seed: arms that share a workload share
		// a search trajectory, so comparisons stay paired, while the keyed
		// derivation keeps the search stream independent of the workload and
		// disturbance streams.
		pcfg.Seed = rng.DeriveSeed(seed, rng.SubsystemSearch)
		if err := body(run, seed, pcfg); err != nil {
			if errors.Is(err, context.Canceled) {
				err = ErrCanceled
			}
			return run, err
		}
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "%s: run %d/%d done\n", label, run+1, opts.Runs)
		}
	}
	return opts.Runs, nil
}

// eachSystem is eachRun for the common case of one instance of cfg per run.
func eachSystem(ctx context.Context, opts Options, cfg workload.Config, label string,
	body func(run int, sys *model.System, pcfg heuristics.PSGConfig) error) (completed int, err error) {
	return eachRun(ctx, opts, label, func(run int, seed int64, pcfg heuristics.PSGConfig) error {
		sys, err := workload.Generate(cfg, seed)
		if err != nil {
			return err
		}
		return body(run, sys, pcfg)
	})
}

// Panel names the initial-allocation policies the disturbance studies (E19
// chaos, E21 overload) compare: IMR in catalogue order, the two one-shot
// orderings, and GENITOR (Seeded PSG).
var Panel = []string{"IMR", "MWF", "TF", "GENITOR"}

// initialPanel maps sys once per named policy: the Panel aliases "IMR"
// (identity order) and "GENITOR" (Seeded PSG), or any heuristics.RunContext
// name. Callers build the whole panel before recording any sample, so a
// search canceled mid-run never leaves a study with a lopsided run.
func initialPanel(ctx context.Context, sys *model.System, pcfg heuristics.PSGConfig, names []string) (map[string]*heuristics.Result, error) {
	initial := make(map[string]*heuristics.Result, len(names))
	for _, name := range names {
		var r *heuristics.Result
		var err error
		switch name {
		case "IMR":
			order := make([]int, len(sys.Strings))
			for i := range order {
				order[i] = i
			}
			r = heuristics.MapSequence(sys, order)
		case "GENITOR":
			r, _, err = heuristics.RunContext(ctx, "SeededPSG", sys, pcfg)
		default:
			r, _, err = heuristics.RunContext(ctx, name, sys, pcfg)
		}
		if err != nil {
			return nil, err
		}
		initial[name] = r
	}
	return initial, nil
}

// eachPanel is eachRun for the studies that disturb an initial allocation
// (E16, E19, E21): per run it generates a scenario-3 instance, maps it under
// every named policy, records each mapping's slackness in slack, and hands
// the panel to body.
func eachPanel(ctx context.Context, opts Options, label string, names []string, slack map[string]*stats.Sample,
	body func(run int, seed int64, sys *model.System, initial map[string]*heuristics.Result) error) (completed int, err error) {
	cfg := opts.scenarioConfig(workload.LightlyLoaded)
	return eachRun(ctx, opts, label, func(run int, seed int64, pcfg heuristics.PSGConfig) error {
		sys, err := workload.Generate(cfg, seed)
		if err != nil {
			return err
		}
		initial, err := initialPanel(ctx, sys, pcfg, names)
		if err != nil {
			return err
		}
		for _, name := range names {
			slack[name].Add(initial[name].Metric.Slackness)
		}
		return body(run, seed, sys, initial)
	})
}

// panelRows allocates the per-policy tables of a panel study: for each name,
// n points (each labelled by set) and an empty initial-slackness sample.
func panelRows[P any](names []string, n int, set func(pt *P, i int)) (map[string][]P, map[string]*stats.Sample) {
	rows := make(map[string][]P, len(names))
	slack := make(map[string]*stats.Sample, len(names))
	for _, name := range names {
		pts := make([]P, n)
		for i := range pts {
			set(&pts[i], i)
		}
		rows[name] = pts
		slack[name] = &stats.Sample{}
	}
	return rows, slack
}

// scenarioSeed derives the seed for the i-th sampled disturbance scenario
// (fault or surge) of one run. The label keeps the chaos and overload studies
// on distinct keyed streams even for identical (seed, i), and independent of
// the workload stream (the run seed itself) and the search stream.
func scenarioSeed(seed int64, label string, i int) int64 {
	return rng.DeriveSeed(seed, label, int64(i))
}
