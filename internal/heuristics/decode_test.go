package heuristics

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/feasibility"
	"repro/internal/model"
	"repro/internal/workload"
)

// coarsen snaps a ship's floats to a coarse grid, so that equal machine terms
// — the ties a scan order visits out of index order — are the rule.
func coarsen(sys *model.System) {
	for k := range sys.Strings {
		s := &sys.Strings[k]
		s.Period = 32 * math.Ceil(s.Period/32)
		for i := range s.Apps {
			app := &s.Apps[i]
			for j := range app.NominalTime {
				app.NominalTime[j] = 2 * math.Ceil(app.NominalTime[j]/2)
				app.NominalUtil[j] = math.Ceil(4*app.NominalUtil[j]) / 4
			}
		}
	}
}

// TestLaneDecodesAsIndexScan holds a decoder lane — its scan order and
// precomputed intensities — to MapSequence, which scans in index order and
// averages its own: random permutations decode to the same metric bits and
// StateDigest, on the paper's ship, a fleet ship cut to 40 strings and a
// coarsened ship full of equal machine terms.
func TestLaneDecodesAsIndexScan(t *testing.T) {
	paper := func() *model.System { return workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 1) }
	fleetCfg := workload.FleetConfig(128, 2)
	fleetCfg.RouteDensity, fleetCfg.Strings = 0, 40
	coarse := paper()
	coarsen(coarse)
	ships := map[string]*model.System{"paper": paper(), "fleet": workload.MustGenerate(fleetCfg, 1), "coarse": coarse}
	for name, sys := range ships {
		t.Run(name, func(t *testing.T) {
			if err := sys.Validate(); err != nil {
				t.Fatal(err)
			}
			tables := newSearchTables(sys)
			if tables.order == nil {
				t.Fatal("no scan order built over a valid ship")
			}
			d := newSeqDecoder(sys, metricScore, newDecodeMemo(len(sys.Strings)), tables)
			rng := rand.New(rand.NewSource(48))
			mapped := 0
			for p := 0; p < 200; p++ {
				perm := rng.Perm(len(sys.Strings))
				stored := len(d.memo.entries)
				fit := d.fitness(perm)
				if len(d.memo.entries) != stored+1 {
					t.Fatalf("permutation %d answered from the memo", p)
				}
				r := MapSequence(sys, perm)
				if math.Float64bits(fit.Primary) != math.Float64bits(r.Metric.Worth) ||
					math.Float64bits(fit.Secondary) != math.Float64bits(r.Metric.Slackness) {
					t.Fatalf("permutation %d: lane metric (%v, %v), MapSequence (%v, %v)",
						p, fit.Primary, fit.Secondary, r.Metric.Worth, r.Metric.Slackness)
				}
				if got, want := feasibility.StateDigest(d.scratch), feasibility.StateDigest(r.Alloc); got != want {
					t.Fatalf("permutation %d: lane state digest %s, MapSequence %s", p, got, want)
				}
				mapped += r.NumMapped
			}
			if mapped == 0 {
				t.Fatal("no permutation mapped a string")
			}
		})
	}
}

// PSG and SeededPSG on scenario 1 (seed 1, 100 iterations, one trial, one
// worker: `shipsched -scenario 1 -seed 1 -heuristic PSG -psg-iters 100
// -psg-trials 1 -workers 1`) find what they found while every lane scanned in
// index order: the metric bits, the run's size and the mapping's digest were
// recorded then.
func TestSearchResultsRecorded(t *testing.T) {
	sys, err := workload.LoadSystem("", 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		name                 string
		worth, slack         uint64
		iters, evals, mapped int
		digest               string
	}{
		{"PSG", 0x40a6460000000000, 0x3fbfc8732dfdbb00, 100, 550, 61, "33ad4c4ac53115ea"},
		{"SeededPSG", 0x40b3920000000000, 0x3fba6c759fca5c18, 100, 550, 60, "2cd4a760d44165c5"},
	} {
		cfg := DefaultPSGConfig()
		cfg.MaxIterations, cfg.Trials, cfg.Workers, cfg.Seed = 100, 1, 1, 1
		r := Run(want.name, sys, cfg)
		if got := feasibility.StateDigest(r.Alloc); math.Float64bits(r.Metric.Worth) != want.worth ||
			math.Float64bits(r.Metric.Slackness) != want.slack || r.Iterations != want.iters ||
			r.Evaluations != want.evals || r.NumMapped != want.mapped || got != want.digest {
			t.Errorf("%s: worth %v, slackness %v, %d iterations, %d evaluations, %d mapped, digest %s; want %v, %v, %d, %d, %d, %s",
				want.name, r.Metric.Worth, r.Metric.Slackness, r.Iterations, r.Evaluations, r.NumMapped, got,
				math.Float64frombits(want.worth), math.Float64frombits(want.slack), want.iters, want.evals, want.mapped, want.digest)
		}
	}
}
