package heuristics

import (
	"context"
	"fmt"

	"repro/internal/genitor"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/workers"
)

// ErrCanceled is returned by RunContext and ResumeSearch when their context
// ends a search early. The accompanying *Result is a usable partial
// answer — the best mapping found before cancellation — so callers decide
// whether to keep or discard it. The error wraps context.Canceled, so
// errors.Is(err, context.Canceled) also holds.
var ErrCanceled = fmt.Errorf("heuristics: search canceled: %w", context.Canceled)

// PSGConfig parameterizes the Permutation-Space GENITOR heuristic. Trials is
// the number of independent GENITOR runs (distinct starting points in the
// permutation space) whose best result is reported; the paper used four.
type PSGConfig struct {
	genitor.Config
	Trials int
	// Workers bounds the OS-level parallelism of the search: independent
	// trials run concurrently, and when workers outnumber trials the surplus
	// is spent on batched candidate evaluation inside each trial (up to the
	// three candidates a GENITOR step produces). Zero or negative means all
	// available cores (workers.Workers). The result is bit-identical for every
	// value: trials have independent seeded RNG streams, decoding is a pure
	// function of the chromosome, and the best trial is chosen in trial
	// order.
	Workers int
}

// DefaultPSGConfig returns the paper's PSG parameters: population 250, bias
// 1.6, 5,000 iterations, 300-iteration elite stall, four trials — spread over
// all available cores.
func DefaultPSGConfig() PSGConfig {
	return PSGConfig{Config: genitor.DefaultConfig(), Trials: 4}
}

// WithDefaults returns a copy with every zero-valued search parameter
// replaced by its paper default: the embedded GENITOR parameters via
// genitor.Config.WithDefaults, and four trials. Seed and Workers are kept
// as-is (zero is meaningful for both). Value receiver — the original is
// never mutated.
func (c PSGConfig) WithDefaults() PSGConfig {
	c.Config = c.Config.WithDefaults()
	if c.Trials == 0 {
		c.Trials = DefaultPSGConfig().Trials
	}
	return c
}

// Validate reports configuration errors: the embedded GENITOR parameters
// must pass genitor.Config.Validate and Trials must be positive. Workers is
// unconstrained (any value below one means "all cores").
func (c PSGConfig) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.Trials < 1 {
		return fmt.Errorf("heuristics: %d PSG trials, want >= 1", c.Trials)
	}
	return nil
}

// lanesPerTrial splits the worker budget between trial-level parallelism and
// in-trial batched evaluation: lanes beyond one only help once every trial
// already has a worker, and more than three lanes are useless because a
// GENITOR step evaluates at most three candidates.
func lanesPerTrial(workers, trials int) int {
	lanes := workers / trials
	if lanes < 1 {
		lanes = 1
	}
	if lanes > 3 {
		lanes = 3
	}
	return lanes
}

// psgTelemetry caches the search-level counters for one psgRun; nil fields
// (no-op) when telemetry is disabled.
type psgTelemetry struct {
	trials      *telemetry.Counter
	iterations  *telemetry.Counter
	evaluations *telemetry.Counter
}

func newPSGTelemetry() psgTelemetry {
	return psgTelemetry{
		trials:      telemetry.C("heuristics.psg.trials"),
		iterations:  telemetry.C("heuristics.psg.iterations"),
		evaluations: telemetry.C("heuristics.psg.evaluations"),
	}
}

// countStop tallies a trial's stop reason ("heuristics.psg.stop.<reason>" —
// stall exits, budget exhaustion, convergence, cancellation).
func countStop(reason string) {
	if !telemetry.Enabled() || reason == "" {
		return
	}
	telemetry.C("heuristics.psg.stop." + reason).Inc()
}

// psgVariants declares the PSG family once: per heuristic name, the seed
// chromosomes injected into the otherwise random initial population and the
// fitness the search maximizes. Running, checkpointing and resuming a variant
// all read this table, so a variant cannot be resumed under a different
// (seeds, score) pair than it started with.
var psgVariants = map[string]func(sys *model.System) (seeds [][]int, score scoreFunc){
	// PSG, the Permutation-Space GENITOR-based heuristic: GENITOR search over
	// string orderings, each ordering projected to the solution space by the
	// IMR, with fitness given by the two-component performance metric. The
	// initial population is entirely random.
	"PSG": func(*model.System) ([][]int, scoreFunc) { return nil, metricScore },
	// SeededPSG is PSG with the MWF and TF orderings included in the initial
	// population; all other operations and stopping conditions are identical.
	"SeededPSG": func(sys *model.System) ([][]int, scoreFunc) {
		return [][]int{MWFOrder(sys), TFOrder(sys)}, metricScore
	},
	// ClassedPSG is PSG under the alternate worth scheme (classed.go):
	// fitness compares mapped worth class by class, and the class-scheme
	// ordering and the plain MWF ordering seed the initial population.
	"ClassedPSG": func(sys *model.System) ([][]int, scoreFunc) {
		return [][]int{ClassedOrder(sys), MWFOrder(sys)}, classedScore(sys)
	},
}

// psgRun executes cfg.Trials independent GENITOR searches over the
// permutation space — concurrently, over cfg.Workers pool workers — with the
// seed chromosomes and scoring function of the named psgVariants entry, and
// returns the decoded best mapping. Each trial derives its RNG stream from
// cfg.Seed and the trial index alone and decoding is pure, so the outcome is
// identical to a serial run for any worker count.
//
// prior (may be nil) carries the state of an earlier interrupted run —
// finished trials are taken from it verbatim and interrupted trials resume
// from their engine checkpoints, so the combined run is bit-identical to one
// that was never interrupted. When the context (canceled, or past its
// deadline) stops any trial, the returned SearchCheckpoint captures the whole
// search for a later resume, alongside ErrCanceled; it is nil, and so is the
// error, for a run whose every trial finished.
func psgRun(ctx context.Context, sys *model.System, cfg PSGConfig, name string, prior *SearchCheckpoint) (*Result, *SearchCheckpoint, error) {
	seeds, score := psgVariants[name](sys)
	if cfg.Trials < 1 {
		cfg.Trials = 1
	}
	n := workers.Workers(cfg.Workers)
	lanes := lanesPerTrial(n, cfg.Trials)
	tel := newPSGTelemetry()
	runSpan := telemetry.BeginSpan("psg.run")
	type trialOut struct {
		perm  []int
		fit   genitor.Fitness
		stats genitor.Stats
		cp    *genitor.Checkpoint // non-nil when the trial stopped resumably
	}
	outs := make([]trialOut, cfg.Trials)
	tables := newSearchTables(sys)
	mapErr := workers.Map(n, cfg.Trials, func(trial int) {
		if prior != nil && trial < len(prior.Trials) && prior.Trials[trial].Done {
			t := prior.Trials[trial]
			outs[trial] = trialOut{perm: t.Perm, fit: t.Fitness, stats: t.Stats}
			return
		}
		span := telemetry.BeginSpan("psg.trial")
		var eng *genitor.Engine
		var err error
		if prior != nil && trial < len(prior.Trials) && prior.Trials[trial].Engine != nil {
			eng, err = genitor.Restore(prior.Trials[trial].Engine, newDecoderBank(sys, score, lanes, tables))
		} else {
			gcfg := cfg.Config
			// Keyed derivation (root seed, psg-trial subsystem, trial index)
			// gives every trial an independent stream; the engine re-keys the
			// scalar under its own genitor label.
			gcfg.Seed = rng.Key(cfg.Seed, rng.SubsystemPSGTrial, int64(trial)).Seed64()
			eng, err = genitor.NewBatch(gcfg, len(sys.Strings), seeds, newDecoderBank(sys, score, lanes, tables))
		}
		if err != nil {
			// Configuration bugs and corrupt checkpoints that slipped past
			// validation; recovered by the pool into the error return.
			panic("heuristics: " + err.Error())
		}
		perm, fit, stats := eng.RunContext(ctx)
		out := trialOut{perm: perm, fit: fit, stats: stats}
		if stats.StopReason == genitor.StopCanceled {
			out.cp = eng.Checkpoint()
		}
		outs[trial] = out
		tel.trials.Inc()
		tel.iterations.Add(int64(stats.Iterations))
		tel.evaluations.Add(int64(stats.Evaluations))
		countStop(stats.StopReason)
		span.End(
			telemetry.F("trial", float64(trial)),
			telemetry.F("iterations", float64(stats.Iterations)),
			telemetry.F("evaluations", float64(stats.Evaluations)),
		)
	})
	if mapErr != nil {
		// A trial panicked (recovered by the pool); some trial slots may be
		// empty, so no best mapping can be reported.
		runSpan.End(telemetry.F("trials", float64(cfg.Trials)))
		return nil, nil, fmt.Errorf("heuristics: PSG trial failed: %w", mapErr)
	}
	var scp *SearchCheckpoint
	for _, out := range outs {
		if out.cp != nil {
			scp = newSearchCheckpoint(name, cfg, sys, func(trial int) TrialCheckpoint {
				o := outs[trial]
				return TrialCheckpoint{Done: o.cp == nil, Perm: o.perm, Fitness: o.fit, Stats: o.stats, Engine: o.cp}
			})
			break
		}
	}
	best := 0
	totalEvals, totalIters := 0, 0
	for trial, out := range outs {
		totalEvals += out.stats.Evaluations
		totalIters += out.stats.Iterations
		if trial > 0 && out.fit.Better(outs[best].fit) {
			best = trial
		}
	}
	r := MapSequence(sys, outs[best].perm)
	r.Name = name
	r.Evaluations = totalEvals
	r.Iterations = totalIters
	r.StopReason = outs[best].stats.StopReason
	runSpan.End(
		telemetry.F("trials", float64(cfg.Trials)),
		telemetry.F("evaluations", float64(totalEvals)),
		telemetry.F("worth", r.Metric.Worth),
	)
	var trialErr error
	if scp != nil {
		trialErr = ErrCanceled
	}
	return r, scp, trialErr
}

// Names lists the paper's four heuristics, in the order the figures report
// them. AllNames additionally includes the extensions implemented in this
// repository: the solution-space GA baseline (SSG) and the alternate worth
// scheme (ClassedPSG).
var (
	Names    = []string{"PSG", "MWF", "TF", "SeededPSG"}
	AllNames = []string{"PSG", "MWF", "TF", "SeededPSG", "SSG", "ClassedPSG"}
)

// Run is RunContext under a background context, for heuristic names the
// caller knows. It panics on an unknown name or a configuration error, so a
// name that comes from user input goes through RunContext instead.
func Run(name string, sys *model.System, cfg PSGConfig) *Result {
	r, _, err := RunContext(context.Background(), name, sys, cfg)
	if err != nil {
		panic(err) // background contexts never cancel
	}
	return r
}

// RunContext is the one way to start a heuristic by name, one of AllNames:
// the PSG family (PSG, SeededPSG, ClassedPSG; see psgVariants) searches under
// cfg; MWF and TF, the paper's one-shot heuristics, are too quick to
// interrupt and ignore the context; SSG, the solution-space baseline
// (ssg.go), reads only cfg.Config. The searches poll the context between
// iterations and, when it ends the run early, return their best partial
// result with ErrCanceled; a PSG-family search then also returns a
// SearchCheckpoint from which ResumeSearch continues bit-identically. The
// checkpoint is nil when the search ran to completion, and always for MWF, TF
// and SSG. An unknown name is an error.
func RunContext(ctx context.Context, name string, sys *model.System, cfg PSGConfig) (*Result, *SearchCheckpoint, error) {
	if _, ok := psgVariants[name]; ok {
		return psgRun(ctx, sys, cfg, name, nil)
	}
	switch name {
	case "MWF":
		return MWF(sys), nil, nil
	case "TF":
		return TF(sys), nil, nil
	case "SSG":
		r, err := ssg(ctx, sys, cfg.Config)
		return r, nil, err
	}
	return nil, nil, fmt.Errorf("heuristics: unknown heuristic %q (want one of %v)", name, AllNames)
}
