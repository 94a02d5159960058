package heuristics

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/feasibility"
	"repro/internal/model"
	"repro/internal/workload"
)

// eachPermutation calls f with every permutation of 0..n-1 (Heap's
// algorithm, iterative); f must not keep or modify the slice.
func eachPermutation(n int, f func(perm []int)) {
	perm := identity(n)
	c := make([]int, n)
	f(perm)
	for i := 0; i < n; {
		if c[i] < i {
			if i%2 == 0 {
				perm[0], perm[i] = perm[i], perm[0]
			} else {
				perm[c[i]], perm[i] = perm[i], perm[c[i]]
			}
			f(perm)
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
}

// fitnessOf is a metric as the search ranks it: worth, then slackness, both
// compared exactly (genitor.Fitness.Better).
func fitnessOf(m feasibility.Metric) [2]float64 { return [2]float64{m.Worth, m.Slackness} }

// atLeast reports whether x is not worse than y by the search's exact order.
func atLeast(x, y feasibility.Metric) bool {
	if x.Worth != y.Worth {
		return x.Worth > y.Worth
	}
	return x.Slackness >= y.Slackness
}

// permInstance is one tiny ship: a paper scenario cut to a few strings on a
// few machines, so that not every string fits and the order decides.
type permInstance struct {
	scenario workload.Scenario
	seed     int64
	strings  int
	machines int
}

func (in permInstance) String() string {
	return fmt.Sprintf("scenario %d seed %d (%d strings, %d machines)", in.scenario, in.seed, in.strings, in.machines)
}

func (in permInstance) system(tb testing.TB) *model.System {
	cfg := workload.ScenarioConfig(in.scenario)
	cfg.Strings, cfg.Machines = in.strings, in.machines
	sys, err := workload.Generate(cfg, in.seed)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// The permutation-space optimum as a yardstick (ROADMAP item 18a). On ships
// of at most 8 strings every order is decoded through MapSequenceInto,
// MapSequence over one reused allocation — the decoder PSG searches with —
// and the best decode is the optimum of the space PSG searches. Each decoded allocation must pass the full two-stage
// analysis: the decoder accepts a string on the delta analyzer's answer,
// slack budgets included, so this holds the analyzer to the full analysis on
// every order. Then, by the search's exact order on (worth, slackness):
//
//   - optimum ≥ SeededPSG, and ≥ PSG: their result is MapSequence of one
//     order;
//   - SeededPSG ≥ MWF: MWF is MapSequence(MWFOrder), which psgVariants puts
//     in SeededPSG's initial population; genitor's tryInsert only ever
//     displaces the poorest member, so the elite never gets worse, and psgRun
//     decodes the elite with MapSequence again, bit for bit the fitness it
//     was ranked by.
//
// The search runs at the soak budget (population 30, 80 iterations, stall
// 80, two trials). The 8-string instances, one per scenario, are skipped
// under -race and -short.
func TestPermutationSpaceOptimum(t *testing.T) {
	// Scenario 3 is scenario 1 with a sixth of the strings; cut to the same
	// string count it keeps that by getting more machines.
	var instances []permInstance
	for _, sc := range []workload.Scenario{workload.HighlyLoaded, workload.QoSLimited, workload.LightlyLoaded} {
		machines := 2
		if sc == workload.LightlyLoaded {
			machines = 3
		}
		for seed := int64(1); seed <= 3; seed++ {
			instances = append(instances, permInstance{sc, seed, 6, machines})
		}
		if !raceEnabled && !testing.Short() {
			instances = append(instances, permInstance{sc, 1, 8, machines + 1})
		}
	}
	cfg := DefaultPSGConfig()
	cfg.PopulationSize, cfg.MaxIterations, cfg.StallLimit, cfg.Trials, cfg.Workers = 30, 80, 80, 2, 1
	var decodes, spread int
	var reached, reachedWorth [3]int // SeededPSG, PSG, MWF
	start := time.Now()
	for _, in := range instances {
		sys := in.system(t)
		scratch := feasibility.New(sys)
		var best, worst feasibility.Metric
		first := true
		eachPermutation(in.strings, func(perm []int) {
			m := MapSequenceInto(scratch, perm)
			decodes++
			if !scratch.TwoStageFeasible() {
				t.Fatalf("%v: order %v decodes to an allocation the full analysis refuses", in, perm)
			}
			if first || !atLeast(best, m) {
				best = m
			}
			if first || atLeast(worst, m) {
				worst = m
			}
			first = false
		})
		mwf := MWF(sys)
		cfg.Seed = in.seed
		seeded, psg := Run("SeededPSG", sys, cfg), Run("PSG", sys, cfg)
		for _, r := range []*Result{mwf, seeded, psg} {
			if !atLeast(best, r.Metric) {
				t.Errorf("%v: %s %+v beats the permutation-space optimum %+v", in, r.Name, r.Metric, best)
			}
		}
		if !atLeast(seeded.Metric, mwf.Metric) {
			t.Errorf("%v: SeededPSG %+v is worse than MWF %+v, whose order it was seeded with", in, seeded.Metric, mwf.Metric)
		}
		if best.Worth != worst.Worth {
			spread++
		}
		for x, r := range []*Result{seeded, psg, mwf} {
			if fitnessOf(r.Metric) == fitnessOf(best) {
				reached[x]++
			}
			if r.Metric.Worth == best.Worth {
				reachedWorth[x]++
			}
		}
		t.Logf("%v: optimum worth %v slackness %.4f, worst order %v; SeededPSG %v, PSG %v, MWF %v",
			in, best.Worth, best.Slackness, worst.Worth, seeded.Metric.Worth, psg.Metric.Worth, mwf.Metric.Worth)
	}
	t.Logf("%d instances (%d where the order moves the worth), %d decodes in %v; the optimum reached (worth and slackness / worth) by SeededPSG %d / %d, PSG %d / %d, MWF %d / %d",
		len(instances), spread, decodes, time.Since(start).Round(time.Millisecond),
		reached[0], reachedWorth[0], reached[1], reachedWorth[1], reached[2], reachedWorth[2])
	if spread == 0 {
		t.Fatal("on no instance did the order move the worth; the yardstick measures nothing")
	}
}
