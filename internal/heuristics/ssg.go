package heuristics

import (
	"context"
	"sort"

	"repro/internal/feasibility"
	"repro/internal/genitor"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// Solution-Space GA (SSG): the baseline the paper dismisses in Section 5 —
// "It was observed experimentally a genetic algorithm [30], operating in the
// solution space, failed to find any feasible allocation even for a
// relatively small set of strings in the reasonable amount of time.
// Therefore, the ... heuristics presented in this section search over the
// permutation space instead."
//
// This implementation reproduces that observation (experiment E10 in
// DESIGN.md). A chromosome assigns a machine to every application directly
// (the solution space). Because almost all such assignments violate the
// two-stage analysis, raw fitness would be zero everywhere and the search
// would see no gradient; to give the baseline its best shot, decoding applies
// a greedy repair that unmaps the least-worth offending string until the
// remaining mapping passes both stages, and fitness is the repaired mapping's metric.
// Even with repair, SSG trails the permutation-space heuristics badly at
// equal evaluation budgets — the paper's conclusion.

// DecodeAssignment maps every application according to genes (one machine
// index per application, strings concatenated in order), then repairs the
// mapping by unmapping offending strings — lowest worth first, ties to the
// lowest ID — until the two-stage analysis passes. It returns the repaired
// result; Result.Order is nil because no string ordering exists in the
// solution space.
func DecodeAssignment(sys *model.System, genes []int) *Result {
	a := feasibility.New(sys)
	idx := 0
	for k := range sys.Strings {
		for i := range sys.Strings[k].Apps {
			a.Assign(k, i, genes[idx])
			idx++
		}
	}
	numMapped := len(sys.Strings)
	for {
		victim := pickRepairVictim(a)
		if victim < 0 {
			break
		}
		a.UnassignString(victim)
		numMapped--
	}
	return &Result{
		Name:        "SSG",
		Alloc:       a,
		NumMapped:   numMapped,
		Metric:      a.Metric(),
		Evaluations: 1,
	}
}

// pickRepairVictim returns the string to unmap, or -1 if the mapping is
// feasible. Candidates are strings with stage-2 violations plus strings
// assigned to over-utilized machines or routes; the least-worth candidate is
// sacrificed. Every string still in a is completely mapped (the repair only
// ever unmaps whole strings), which is what the roster walks report.
func pickRepairVictim(a *feasibility.Allocation) int {
	sys := a.System()
	candidate := -1
	better := func(k int) {
		if candidate < 0 || sys.Strings[k].Worth < sys.Strings[candidate].Worth ||
			(sys.Strings[k].Worth == sys.Strings[candidate].Worth && k < candidate) {
			candidate = k
		}
	}
	// Stage-2 violations.
	for _, v := range a.Violations() {
		better(v.StringID)
	}
	// Stage-1 overloads: every string touching the overloaded resource is a
	// candidate.
	a.StringsOverLimit(feasibility.CapacityLimit, better)
	return candidate
}

type ssgMember struct {
	genes  []int
	metric feasibility.Metric
}

// ssg runs the solution-space genetic algorithm, RunContext's "SSG":
// steady-state replacement with rank-bias selection (as in GENITOR), uniform
// crossover on assignment vectors, and random-reset mutation of one gene. It
// takes the GENITOR parameters, so budgets are comparable with PSG. The
// context is polled between iterations, and a context that is canceled or
// past its deadline stops the search with stop reason "canceled", returning
// the best assignment found so far alongside ErrCanceled.
func ssg(ctx context.Context, sys *model.System, cfg genitor.Config) (*Result, error) {
	if cfg.PopulationSize < 2 {
		cfg.PopulationSize = 2
	}
	telIters := telemetry.C("heuristics.ssg.iterations")
	telEvals := telemetry.C("heuristics.ssg.evaluations")
	nGenes := sys.NumApps()
	// The SSG baseline draws from its own keyed stream, so sharing a root
	// seed with the permutation-space searches never shares a sequence.
	rnd := rng.NewRand(cfg.Seed, rng.SubsystemSSG, 0)
	evals := 0
	eval := func(genes []int) feasibility.Metric {
		evals++
		telEvals.Inc()
		return DecodeAssignment(sys, genes).Metric
	}
	pop := make([]ssgMember, cfg.PopulationSize)
	for p := range pop {
		genes := make([]int, nGenes)
		for g := range genes {
			genes[g] = rnd.Intn(sys.Machines)
		}
		pop[p] = ssgMember{genes: genes, metric: eval(genes)}
	}
	sortSSG(pop)

	selectRank := func() int {
		return genitor.RankBiased(len(pop), cfg.Bias, rnd.Float64())
	}
	tryInsert := func(genes []int, m feasibility.Metric) bool {
		if !m.Better(pop[len(pop)-1].metric) {
			return false
		}
		pos := sort.Search(len(pop), func(i int) bool { return m.Better(pop[i].metric) })
		copy(pop[pos+1:], pop[pos:len(pop)-1])
		pop[pos] = ssgMember{genes: genes, metric: m}
		return pos == 0
	}

	iters, stall := 0, 0
	stopReason := "max-iterations"
	done := ctx.Done()
	for iters < cfg.MaxIterations {
		if done != nil {
			select {
			case <-done:
				stopReason = "canceled"
			default:
			}
			if stopReason == "canceled" {
				break
			}
		}
		p1, p2 := pop[selectRank()].genes, pop[selectRank()].genes
		// Uniform crossover: two complementary offspring.
		c1 := make([]int, nGenes)
		c2 := make([]int, nGenes)
		for g := 0; g < nGenes; g++ {
			if rnd.Intn(2) == 0 {
				c1[g], c2[g] = p1[g], p2[g]
			} else {
				c1[g], c2[g] = p2[g], p1[g]
			}
		}
		improved := false
		for _, child := range [][]int{c1, c2} {
			if tryInsert(child, eval(child)) {
				improved = true
			}
		}
		// Random-reset mutation of one gene.
		m := append([]int(nil), pop[selectRank()].genes...)
		if nGenes > 0 && sys.Machines > 1 {
			g := rnd.Intn(nGenes)
			old := m[g]
			m[g] = rnd.Intn(sys.Machines - 1)
			if m[g] >= old {
				m[g]++
			}
		}
		if tryInsert(m, eval(m)) {
			improved = true
		}
		iters++
		telIters.Inc()
		if improved {
			stall = 0
		} else {
			stall++
			if stall >= cfg.StallLimit {
				stopReason = "elite-stall"
				break
			}
		}
	}
	best := DecodeAssignment(sys, pop[0].genes)
	best.Evaluations = evals
	best.Iterations = iters
	best.StopReason = stopReason
	if stopReason == "canceled" {
		return best, ErrCanceled
	}
	return best, nil
}

func sortSSG(pop []ssgMember) {
	sort.SliceStable(pop, func(a, b int) bool { return pop[a].metric.Better(pop[b].metric) })
}
