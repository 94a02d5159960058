package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/heuristics"
	"repro/internal/lp"
	"repro/internal/model"
	"repro/internal/simplex"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Additional studies beyond the paper's figures (experiments E10-E13 in
// DESIGN.md): the solution-space GA baseline the paper dismisses, the
// termination-semantics ablation, the heterogeneity-model ablation, and the
// LP relaxation-gap audit.

// SSGStudy (E10) reproduces the Section 5 observation that a genetic
// algorithm operating directly in the solution space is not competitive: at
// an equal evaluation budget, the solution-space GA (with a
// best-effort greedy repair) is compared against PSG and Seeded PSG.
func SSGStudy(ctx context.Context, opts Options) (*Figure, error) {
	f := &Figure{Title: "Study E10: solution-space GA vs permutation-space GA (scenario 2)", Metric: "total worth"}
	cfg := opts.scenarioConfig(workload.QoSLimited)
	var err error
	f.Runs, err = eachSystem(ctx, opts, cfg, "SSG study", func(_ int, sys *model.System, pcfg heuristics.PSGConfig) error {
		scfg := pcfg
		scfg.MaxIterations *= pcfg.Trials // equal total budget
		f.add("SSG", heuristics.Run("SSG", sys, scfg).Metric.Worth)
		f.add("PSG", heuristics.Run("PSG", sys, pcfg).Metric.Worth)
		f.add("SeededPSG", heuristics.Run("SeededPSG", sys, pcfg).Metric.Worth)
		return nil
	})
	f.Notes = append(f.Notes,
		"SSG searches application-to-machine assignments directly with greedy repair;",
		"the paper reports this approach 'failed to find any feasible allocation ... in the reasonable amount of time'")
	return f, err
}

// TerminationStudy (E11) quantifies the paper's terminate-at-first-failure
// mapping semantics against a skip-on-failure variant, for the MWF and TF
// orderings on QoS-limited instances (where early failures are common).
func TerminationStudy(ctx context.Context, opts Options) (*Figure, error) {
	f := &Figure{Title: "Study E11: terminate-at-first-failure vs skip-on-failure (scenario 2)", Metric: "total worth"}
	cfg := opts.scenarioConfig(workload.QoSLimited)
	var err error
	f.Runs, err = eachSystem(ctx, opts, cfg, "termination study", func(_ int, sys *model.System, _ heuristics.PSGConfig) error {
		mwfOrder := heuristics.MWFOrder(sys)
		tfOrder := heuristics.TFOrder(sys)
		f.add("MWF-stop", heuristics.MapSequence(sys, mwfOrder).Metric.Worth)
		f.add("MWF-skip", heuristics.MapSequenceSkip(sys, mwfOrder).Metric.Worth)
		f.add("TF-stop", heuristics.MapSequence(sys, tfOrder).Metric.Worth)
		f.add("TF-skip", heuristics.MapSequenceSkip(sys, tfOrder).Metric.Worth)
		return nil
	})
	f.Notes = append(f.Notes,
		"skip-on-failure dominates by construction; the gap is the worth the paper's stop rule leaves unmapped")
	return f, err
}

// HeterogeneityStudy (E12) compares heuristic performance under the paper's
// inconsistent heterogeneity model against the consistent model of the
// heterogeneous-computing literature (paper reference [5]).
func HeterogeneityStudy(ctx context.Context, opts Options) (*Figure, error) {
	f := &Figure{Title: "Study E12: inconsistent vs consistent machine heterogeneity (scenario 1)", Metric: "total worth"}
	var err error
	f.Runs, err = eachRun(ctx, opts, "heterogeneity study", func(_ int, seed int64, pcfg heuristics.PSGConfig) error {
		for _, het := range []workload.Heterogeneity{workload.Inconsistent, workload.Consistent} {
			cfg := opts.scenarioConfig(workload.HighlyLoaded)
			cfg.Heterogeneity = het
			sys, err := workload.Generate(cfg, seed)
			if err != nil {
				return err
			}
			f.add("MWF/"+het.String(), heuristics.MWF(sys).Metric.Worth)
			f.add("SeededPSG/"+het.String(), heuristics.Run("SeededPSG", sys, pcfg).Metric.Worth)
		}
		return nil
	})
	f.Notes = append(f.Notes,
		"under consistent heterogeneity every application prefers the same fast machines, concentrating contention")
	return f, err
}

// WorthSchemeStudy (E14) implements the Section 4 alternate worth scheme
// comparison: standard PSG maximizes summed worth, where ten medium strings
// equal one high string; the classed scheme gives high-worth strings absolute
// lexicographic priority. The study reports the high-class worth each scheme
// preserves on QoS-limited instances with a medium-heavy mix (where the
// schemes actually disagree).
func WorthSchemeStudy(ctx context.Context, opts Options) (*Figure, error) {
	f := &Figure{Title: "Study E14: standard vs alternate (classed) worth scheme (scenario 2)", Metric: "worth"}
	cfg := opts.scenarioConfig(workload.QoSLimited)
	if opts.WorthWeights == nil {
		// Medium-heavy mix: plenty of medium worth to tempt the standard
		// scheme away from expensive high-worth strings.
		cfg.WorthWeights = []float64{0.2, 0.6, 0.2}
	}
	var err error
	f.Runs, err = eachSystem(ctx, opts, cfg, "worth-scheme study", func(_ int, sys *model.System, pcfg heuristics.PSGConfig) error {
		std := heuristics.Run("SeededPSG", sys, pcfg)
		classed := heuristics.Run("ClassedPSG", sys, pcfg)
		stdHigh, _, _ := heuristics.MappedWorthByClass(sys, std)
		classedHigh, _, _ := heuristics.MappedWorthByClass(sys, classed)
		f.add("std/total", std.Metric.Worth)
		f.add("std/high", stdHigh)
		f.add("classed/total", classed.Metric.Worth)
		f.add("classed/high", classedHigh)
		return nil
	})
	f.Notes = append(f.Notes,
		"the classed scheme may trade total worth for high-class worth; both columns shown")
	return f, err
}

// RelaxationAudit (E13) measures what the relaxed upper-bound formulation
// gives up: on reduced instances it solves both formulations and reports the
// worth gap, and on each relaxed solution it reports the maximum route
// utilization a transportation-plan realization would imply.
type RelaxationAudit struct {
	Runs int
	// Full and Relaxed are the two bounds' objectives; Gap is
	// (relaxed - full) / full.
	Full, Relaxed, Gap stats.Sample
	// ImpliedRouteUtil is the audit of the relaxed solutions.
	ImpliedRouteUtil stats.Sample
}

// AuditRelaxation runs E13 on reduced scenario-2 instances (the full LP is
// exponential-ish in practice beyond a few dozen strings).
func AuditRelaxation(ctx context.Context, opts Options) (*RelaxationAudit, error) {
	out := &RelaxationAudit{}
	cfg := opts.scenarioConfig(workload.QoSLimited)
	if opts.Strings == 0 || opts.Strings > 20 {
		cfg.Strings = 10
	}
	var err error
	out.Runs, err = eachSystem(ctx, opts, cfg, "relaxation audit", func(run int, sys *model.System, _ heuristics.PSGConfig) error {
		full, err := lp.UpperBound(sys, lp.Config{Formulation: lp.Full, Objective: lp.MaximizeWorth})
		if err != nil {
			return err
		}
		relaxed, err := lp.UpperBound(sys, lp.Config{Formulation: lp.Relaxed, Objective: lp.MaximizeWorth})
		if err != nil {
			return err
		}
		if full.Status != simplex.Optimal || relaxed.Status != simplex.Optimal {
			return fmt.Errorf("experiments: LP statuses %v/%v on run %d", full.Status, relaxed.Status, run)
		}
		audit, err := lp.AuditRoutes(sys, relaxed)
		if err != nil {
			return err
		}
		out.Full.Add(full.Objective)
		out.Relaxed.Add(relaxed.Objective)
		if full.Objective > 0 {
			// Two solves of the same optimum differ by summation order, and
			// that order belongs to the solver: below 1e-12 the gap is 0.
			gap := (relaxed.Objective - full.Objective) / full.Objective
			if math.Abs(gap) < 1e-12 {
				gap = 0
			}
			out.Gap.Add(gap)
		}
		out.ImpliedRouteUtil.Add(audit)
		return nil
	})
	return out, err
}

// WriteTable renders the relaxation audit.
func (r *RelaxationAudit) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Study E13: full vs relaxed LP upper bound (%d runs, reduced instances)\n", r.Runs)
	fmt.Fprintf(w, "full LP worth UB:       %s\n", r.Full.String())
	fmt.Fprintf(w, "relaxed LP worth UB:    %s\n", r.Relaxed.String())
	fmt.Fprintf(w, "relative gap:           %s\n", r.Gap.String())
	fmt.Fprintf(w, "implied route util of relaxed solutions (transportation-plan audit): %s\n",
		r.ImpliedRouteUtil.String())
}
