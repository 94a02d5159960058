package experiments

import (
	"context"
	"fmt"

	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Ablations of the PSG design choices called out in Section 5 and DESIGN.md.
// They run on reduced QoS-limited instances (the scenario where ordering
// matters most) so a sweep completes in seconds to minutes.

// psgSweep reports PSG total worth on scenario-2 instances for each setting
// of one PSGConfig field: set applies the i-th setting, names[i] labels its
// row. The settings share each run's workload and search seed.
func psgSweep(ctx context.Context, opts Options, title, label string, names []string,
	set func(cfg *heuristics.PSGConfig, i int)) (*Figure, error) {
	f := &Figure{Title: title, Metric: "total worth"}
	cfg := opts.scenarioConfig(workload.QoSLimited)
	var err error
	f.Runs, err = eachSystem(ctx, opts, cfg, label, func(_ int, sys *model.System, pcfg heuristics.PSGConfig) error {
		for i, name := range names {
			c := pcfg
			set(&c, i)
			f.add(name, heuristics.Run("PSG", sys, c).Metric.Worth)
		}
		return nil
	})
	return f, err
}

// BiasSweep reruns the paper's selective-pressure experiment: PSG total worth
// as a function of the GENITOR bias over [1, 2] (the paper settled on 1.6 by
// varying bias in steps of 0.1).
func BiasSweep(ctx context.Context, opts Options, biases []float64) (*Figure, error) {
	opts = opts.WithDefaults()
	if len(biases) == 0 {
		biases = []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0}
	}
	names := make([]string, len(biases))
	for i, bias := range biases {
		names[i] = fmt.Sprintf("bias %.1f", bias)
	}
	f, err := psgSweep(ctx, opts, "Ablation: GENITOR bias sweep (PSG, scenario 2)", "bias sweep", names,
		func(cfg *heuristics.PSGConfig, i int) { cfg.Bias = biases[i] })
	f.Notes = append(f.Notes, fmt.Sprintf("%d strings, PSG %d iterations",
		opts.scenarioConfig(workload.QoSLimited).Strings, opts.PSG.MaxIterations))
	return f, err
}

// SeedingStudy contrasts PSG (random initial population) with Seeded PSG
// (MWF and TF orderings injected) at the same search budget, isolating the
// value of seeding.
func SeedingStudy(ctx context.Context, opts Options) (*Figure, error) {
	f := &Figure{Title: "Ablation: seeding the initial population (scenario 2)", Metric: "total worth"}
	cfg := opts.scenarioConfig(workload.QoSLimited)
	var err error
	f.Runs, err = eachSystem(ctx, opts, cfg, "seeding study", func(_ int, sys *model.System, pcfg heuristics.PSGConfig) error {
		f.add("MWF", heuristics.MWF(sys).Metric.Worth)
		f.add("TF", heuristics.TF(sys).Metric.Worth)
		f.add("PSG", heuristics.Run("PSG", sys, pcfg).Metric.Worth)
		f.add("SeededPSG", heuristics.Run("SeededPSG", sys, pcfg).Metric.Worth)
		return nil
	})
	f.Notes = append(f.Notes,
		"Seeded PSG >= max(MWF, TF) by construction (elitism); the PSG column shows how much of that the random start recovers")
	return f, err
}

// PopulationSweep varies the GENITOR population size at a fixed iteration
// budget.
func PopulationSweep(ctx context.Context, opts Options, sizes []int) (*Figure, error) {
	if len(sizes) == 0 {
		sizes = []int{10, 50, 100, 250}
	}
	names := make([]string, len(sizes))
	for i, size := range sizes {
		names[i] = fmt.Sprintf("pop %d", size)
	}
	return psgSweep(ctx, opts, "Ablation: GENITOR population size (PSG, scenario 2)", "population sweep", names,
		func(cfg *heuristics.PSGConfig, i int) { cfg.PopulationSize = sizes[i] })
}

// WorthMixStudy quantifies the reproduction finding that the heuristic
// ranking depends on the (unspecified in the paper) worth mixing proportions:
// under a uniform mix the capacity frontier falls in the low-worth classes
// and MWF is near-optimal, while under a high-worth-heavy mix the frontier
// falls inside the high-worth class and the GA's freedom to choose among
// equal-worth strings gives PSG/Seeded PSG the paper's reported edge.
func WorthMixStudy(ctx context.Context, opts Options) (*Figure, error) {
	f := &Figure{Title: "Ablation: worth-mix sensitivity (scenario 1)", Metric: "worth gap SeededPSG - MWF"}
	mixes := []struct {
		name    string
		weights []float64
	}{
		{"uniform mix", []float64{1, 1, 1}},
		{"high-heavy mix", []float64{0.1, 0.2, 0.7}},
	}
	relGap := make([]stats.Sample, len(mixes))
	var err error
	f.Runs, err = eachRun(ctx, opts, "worth-mix study", func(_ int, seed int64, pcfg heuristics.PSGConfig) error {
		for mi, mix := range mixes {
			cfg := opts.scenarioConfig(workload.HighlyLoaded)
			cfg.WorthWeights = mix.weights
			sys, err := workload.Generate(cfg, seed)
			if err != nil {
				return err
			}
			mwf := heuristics.MWF(sys).Metric.Worth
			sp := heuristics.Run("SeededPSG", sys, pcfg).Metric.Worth
			f.add(mix.name, sp-mwf)
			if mwf > 0 {
				relGap[mi].Add((sp - mwf) / mwf)
			}
		}
		return nil
	})
	for mi, mix := range mixes {
		f.Notes = append(f.Notes, fmt.Sprintf("%s: relative gap %s", mix.name, relGap[mi].String()))
	}
	return f, err
}
