// Package genitor implements the GENITOR steady-state genetic search
// algorithm (Whitley 1989) over permutation chromosomes, as used by the PSG
// and Seeded PSG heuristics of Shestak et al. (IPPS 2005):
//
//   - a rank-sorted population with steady-state replacement: each offspring
//     immediately competes for inclusion and, if it beats the poorest member,
//     is inserted in sorted order while the poorest is removed (which also
//     implements elitism — the best chromosome can never be displaced);
//   - rank-based bias selection of parents with a configurable selective
//     pressure (a bias of 1.5 makes the top-ranked chromosome 1.5 times more
//     likely to be selected than the median);
//   - the paper's positional crossover: a random cut-off point splits each
//     parent into top and bottom parts, and the genes of each top part are
//     reordered according to their relative positions in the other parent;
//   - swap mutation of two randomly chosen genes;
//   - the paper's stopping conditions: an iteration budget, an elite-stall
//     limit, and full population convergence.
package genitor

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/rng"
	"repro/internal/telemetry"
)

// Fitness is a two-component lexicographic fitness: Primary dominates, and
// Secondary breaks ties (total worth and system slackness in the TSCE
// problem).
type Fitness struct {
	Primary   float64
	Secondary float64
}

// Better reports whether f beats g lexicographically.
func (f Fitness) Better(g Fitness) bool {
	if f.Primary != g.Primary {
		return f.Primary > g.Primary
	}
	return f.Secondary > g.Secondary
}

// Evaluator maps a permutation chromosome to its fitness. The slice must not
// be retained or modified, and the fitness must be a pure function of the
// permutation: the engine may evaluate candidates concurrently (see NewBatch)
// and relies on every lane agreeing on the value.
type Evaluator func(perm []int) Fitness

// Config parameterizes a GENITOR run. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// PopulationSize is the number of chromosomes kept (paper: 250).
	PopulationSize int
	// Bias is the selective pressure of rank-based selection (paper: 1.6,
	// found experimentally over [1, 2] in steps of 0.1).
	Bias float64
	// MaxIterations bounds the run; an iteration is one crossover (two
	// offspring) plus one mutation (paper: 5,000).
	MaxIterations int
	// StallLimit stops the run after this many iterations without a change
	// in the elite chromosome (paper: 300).
	StallLimit int
	// Seed makes the run reproducible.
	Seed int64
}

// DefaultConfig returns the paper's GENITOR parameters.
func DefaultConfig() Config {
	return Config{PopulationSize: 250, Bias: 1.6, MaxIterations: 5000, StallLimit: 300}
}

// WithDefaults returns a copy of the configuration with every zero-valued
// search parameter replaced by its paper default (DefaultConfig). Seed is
// left alone: zero is a valid seed. Value receiver: the original is never
// mutated, matching the Validate/WithDefaults pattern shared by
// workload.Config, heuristics.PSGConfig, and experiments.Options.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.PopulationSize == 0 {
		c.PopulationSize = d.PopulationSize
	}
	if c.Bias == 0 {
		c.Bias = d.Bias
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = d.MaxIterations
	}
	if c.StallLimit == 0 {
		c.StallLimit = d.StallLimit
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.PopulationSize < 2 {
		return fmt.Errorf("genitor: population size %d, want >= 2", c.PopulationSize)
	}
	if c.Bias < 1 || c.Bias > 2 {
		return fmt.Errorf("genitor: bias %v, want in [1, 2]", c.Bias)
	}
	if c.MaxIterations < 0 {
		return fmt.Errorf("genitor: max iterations %d, want >= 0", c.MaxIterations)
	}
	if c.StallLimit <= 0 {
		return fmt.Errorf("genitor: stall limit %d, want > 0", c.StallLimit)
	}
	return nil
}

// Stop reasons reported in Stats.
const (
	StopMaxIterations = "max-iterations"
	StopEliteStall    = "elite-stall"
	StopConverged     = "converged"
	// StopCanceled is reported by RunContext when the context ended the run
	// early — canceled, or past its deadline; the engine still returns its
	// best-so-far chromosome. It is a resumable stop: the engine state is
	// intact, so a checkpointed run can continue where it left off.
	StopCanceled = "canceled"
)

// Stats describes how a run ended.
type Stats struct {
	Iterations  int
	Evaluations int
	StopReason  string
}

type member struct {
	perm    []int
	fitness Fitness
}

// Engine is a running GENITOR population. Create with New (serial evaluation)
// or NewBatch (concurrent candidate evaluation across evaluator lanes), then
// call Run (or Step repeatedly for fine-grained control).
type Engine struct {
	cfg   Config
	n     int         // genes per chromosome
	lanes []Evaluator // one per concurrent evaluation lane; lanes[0] is canonical
	src   *rng.Stream
	rng   *rand.Rand
	pop   []member // sorted best-first
	inTop []bool   // crossover's scratch, one per gene (reorderTop)
	stats Stats
	stall int
	tel   engineTelemetry
}

// engineTelemetry caches the GENITOR counters once per engine; all fields are
// nil (no-op) when telemetry is disabled. The batch-size histogram records
// lane occupancy: how many candidates each evalAll batch carried (3 on every
// Step, the population size during initialization).
type engineTelemetry struct {
	steps       *telemetry.Counter
	evaluations *telemetry.Counter
	crossAcc    *telemetry.Counter
	crossRej    *telemetry.Counter
	mutAcc      *telemetry.Counter
	mutRej      *telemetry.Counter
	batchSize   *telemetry.Histogram
}

func newEngineTelemetry() engineTelemetry {
	return engineTelemetry{
		steps:       telemetry.C("genitor.steps"),
		evaluations: telemetry.C("genitor.evaluations"),
		crossAcc:    telemetry.C("genitor.crossover.accepted"),
		crossRej:    telemetry.C("genitor.crossover.rejected"),
		mutAcc:      telemetry.C("genitor.mutation.accepted"),
		mutRej:      telemetry.C("genitor.mutation.rejected"),
		batchSize:   telemetry.H("genitor.batch_size", 1, 2, 3, 8, 64, 256),
	}
}

// New builds an engine over permutations of n genes. Each seed permutation is
// copied into the initial population (panicking on malformed seeds); the rest
// of the population is filled with uniformly random permutations.
func New(cfg Config, n int, seeds [][]int, eval Evaluator) (*Engine, error) {
	return NewBatch(cfg, n, seeds, []Evaluator{eval})
}

// NewBatch builds an engine whose fitness evaluations are spread across the
// given evaluator lanes: the initial population, and the three candidates of
// every Step (two crossover offspring plus the mutant), are evaluated
// concurrently, one goroutine per lane. Each lane is only ever called from a
// single goroutine at a time, so a lane may own mutable scratch state; state
// shared *between* lanes must be synchronized by the caller. Because
// evaluation is required to be a pure function of the chromosome and the
// engine consumes randomness and inserts candidates in a fixed order, the
// results are bit-identical for any number of lanes. With one lane the engine
// is fully serial and NewBatch is exactly New.
func NewBatch(cfg Config, n int, seeds [][]int, lanes []Evaluator) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("genitor: chromosome length %d, want >= 1", n)
	}
	if len(seeds) > cfg.PopulationSize {
		return nil, fmt.Errorf("genitor: %d seeds exceed population size %d", len(seeds), cfg.PopulationSize)
	}
	if len(lanes) < 1 {
		return nil, fmt.Errorf("genitor: no evaluator lanes")
	}
	for i, l := range lanes {
		if l == nil {
			return nil, fmt.Errorf("genitor: evaluator lane %d is nil", i)
		}
	}
	src := engineStream(cfg.Seed)
	e := &Engine{
		cfg:   cfg,
		n:     n,
		lanes: lanes,
		src:   src,
		rng:   src.Rand(),
		pop:   make([]member, 0, cfg.PopulationSize),
		tel:   newEngineTelemetry(),
	}
	for _, s := range seeds {
		if !IsPermutation(s, n) {
			return nil, fmt.Errorf("genitor: seed %v is not a permutation of %d genes", s, n)
		}
		e.pop = append(e.pop, member{perm: append([]int(nil), s...)})
	}
	for len(e.pop) < cfg.PopulationSize {
		e.pop = append(e.pop, member{perm: e.rng.Perm(n)})
	}
	perms := make([][]int, len(e.pop))
	for i := range e.pop {
		perms[i] = e.pop[i].perm
	}
	for i, fit := range e.evalAll(perms) {
		e.pop[i].fitness = fit
	}
	sort.SliceStable(e.pop, func(a, b int) bool { return e.pop[a].fitness.Better(e.pop[b].fitness) })
	return e, nil
}

// evalAll evaluates the chromosomes, spreading them across the evaluator
// lanes in a fixed stride so each lane serves one goroutine; the result order
// matches the input order regardless of lane count.
func (e *Engine) evalAll(perms [][]int) []Fitness {
	e.stats.Evaluations += len(perms)
	e.tel.evaluations.Add(int64(len(perms)))
	e.tel.batchSize.Observe(float64(len(perms)))
	out := make([]Fitness, len(perms))
	g := len(e.lanes)
	if g > len(perms) {
		g = len(perms)
	}
	if g <= 1 {
		for i, p := range perms {
			out[i] = e.lanes[0](p)
		}
		return out
	}
	var wg sync.WaitGroup
	wg.Add(g)
	for lane := 0; lane < g; lane++ {
		go func(lane int) {
			defer wg.Done()
			for i := lane; i < len(perms); i += g {
				out[i] = e.lanes[lane](perms[i])
			}
		}(lane)
	}
	wg.Wait()
	return out
}

// Best returns a copy of the elite chromosome and its fitness.
func (e *Engine) Best() ([]int, Fitness) {
	return append([]int(nil), e.pop[0].perm...), e.pop[0].fitness
}

// Stats returns the counters accumulated so far.
func (e *Engine) Stats() Stats { return e.stats }

// RankBiased maps a uniform draw u in [0, 1) to a rank in [0, n) — rank 0 the
// fittest — by Whitley's linear bias function: with bias b,
// rank = n * (b - sqrt(b^2 - 4(b-1)u)) / (2(b-1)), making the top rank b times
// more likely than the median. Bias 1 degrades to uniform selection.
func RankBiased(n int, bias, u float64) int {
	r := float64(n) * u
	if bias != 1 {
		r = float64(n) * (bias - math.Sqrt(bias*bias-4*(bias-1)*u)) / (2 * (bias - 1))
	}
	return min(max(int(r), 0), n-1)
}

// selectRank draws a rank-biased population rank.
func (e *Engine) selectRank() int {
	return RankBiased(len(e.pop), e.cfg.Bias, e.rng.Float64())
}

// tryInsert offers a chromosome for inclusion: if it has higher fitness than
// the poorest member, it is inserted in sorted order and the poorest removed;
// otherwise it is discarded. Reports whether the chromosome entered the
// population and whether it became the new elite.
func (e *Engine) tryInsert(perm []int, fit Fitness) (inserted, elite bool) {
	worst := e.pop[len(e.pop)-1]
	if !fit.Better(worst.fitness) {
		return false, false
	}
	pos := sort.Search(len(e.pop), func(i int) bool { return fit.Better(e.pop[i].fitness) })
	copy(e.pop[pos+1:], e.pop[pos:len(e.pop)-1])
	e.pop[pos] = member{perm: perm, fitness: fit}
	return true, pos == 0
}

// crossover implements the paper's operator: a random cut-off point divides
// both parents into top and bottom parts; each offspring keeps its parent's
// gene sets in both parts but reorders the top part according to the genes'
// relative positions in the other parent. Choosing the top parts matters for
// partial resource allocations: strings in the bottom part of a chromosome
// may not be mapped at all, so reordering them would not change the decoded
// solution.
func (e *Engine) crossover(a, b []int) ([]int, []int) {
	if e.n < 2 {
		return append([]int(nil), a...), append([]int(nil), b...)
	}
	cut := 1 + e.rng.Intn(e.n-1) // top part is [0, cut)
	if e.inTop == nil {
		e.inTop = make([]bool, e.n)
	}
	return reorderTop(a, b, cut, e.inTop), reorderTop(b, a, cut, e.inTop)
}

// reorderTop returns a copy of parent with its first cut genes reordered to
// match their relative order in other. The genes are distinct, so that order
// is unique: mark the top genes, then take them in other's order. inTop holds
// one false per gene and is left that way.
func reorderTop(parent, other []int, cut int, inTop []bool) []int {
	child := append([]int(nil), parent...)
	for _, g := range parent[:cut] {
		inTop[g] = true
	}
	i := 0
	for _, g := range other {
		if inTop[g] {
			inTop[g] = false
			child[i] = g
			if i++; i == cut {
				break
			}
		}
	}
	return child
}

// mutate returns a copy of the chromosome with two randomly chosen genes
// swapped.
func (e *Engine) mutate(perm []int) []int {
	out := append([]int(nil), perm...)
	if e.n < 2 {
		return out
	}
	x := e.rng.Intn(e.n)
	y := e.rng.Intn(e.n - 1)
	if y >= x {
		y++
	}
	out[x], out[y] = out[y], out[x]
	return out
}

// converged reports whether every chromosome equals the elite.
func (e *Engine) converged() bool {
	for i := 1; i < len(e.pop); i++ {
		for g := range e.pop[i].perm {
			if e.pop[i].perm[g] != e.pop[0].perm[g] {
				return false
			}
		}
	}
	return true
}

// Step performs one GENITOR iteration: three parents are drawn by rank-bias
// selection, producing two crossover offspring and one mutant; the three
// candidates are evaluated as a batch (concurrently when the engine has
// multiple lanes) and then offered for insertion in a fixed order. Selecting
// the mutation parent before the offspring are inserted is what makes the
// batch well-defined — all candidates derive from the same population
// snapshot — and keeps results independent of the lane count. The elite-stall
// counter is maintained here, so Step is the complete state transition and a
// Checkpoint taken between any two Steps captures the full search state.
// Reports whether the elite changed.
func (e *Engine) Step() bool {
	p1 := e.selectRank()
	p2 := e.selectRank()
	c1, c2 := e.crossover(e.pop[p1].perm, e.pop[p2].perm)
	m := e.mutate(e.pop[e.selectRank()].perm)
	cands := [][]int{c1, c2, m}
	fits := e.evalAll(cands)
	eliteChanged := false
	for i, cand := range cands {
		inserted, elite := e.tryInsert(cand, fits[i])
		if elite {
			eliteChanged = true
		}
		// Acceptance accounting: cands[0] and cands[1] are the crossover
		// offspring, cands[2] the mutant.
		switch {
		case i < 2 && inserted:
			e.tel.crossAcc.Inc()
		case i < 2:
			e.tel.crossRej.Inc()
		case inserted:
			e.tel.mutAcc.Inc()
		default:
			e.tel.mutRej.Inc()
		}
	}
	e.stats.Iterations++
	e.tel.steps.Inc()
	if eliteChanged {
		e.stall = 0
	} else {
		e.stall++
	}
	return eliteChanged
}

// Run iterates until one of the stopping conditions is reached and returns
// the elite chromosome, its fitness, and run statistics.
func (e *Engine) Run() ([]int, Fitness, Stats) {
	return e.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the context is polled
// before every iteration, and a context that is canceled or past its deadline
// stops the search with StopCanceled while still returning the best
// chromosome found so far (a partial but usable result). The stop lands on an
// iteration boundary, so it decides only when the search stops, never its
// trajectory. With context.Background() it is exactly Run.
func (e *Engine) RunContext(ctx context.Context) ([]int, Fitness, Stats) {
	done := ctx.Done()
	for {
		if done != nil {
			select {
			case <-done:
				e.stats.StopReason = StopCanceled
				best, fit := e.Best()
				return best, fit, e.stats
			default:
			}
		}
		if e.stats.Iterations >= e.cfg.MaxIterations {
			e.stats.StopReason = StopMaxIterations
			break
		}
		if !e.Step() && e.stall >= e.cfg.StallLimit {
			e.stats.StopReason = StopEliteStall
			break
		}
		if e.converged() {
			e.stats.StopReason = StopConverged
			break
		}
	}
	best, fit := e.Best()
	return best, fit, e.stats
}

// IsPermutation reports whether perm is a permutation of 0..n-1.
func IsPermutation(perm []int, n int) bool {
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, g := range perm {
		if g < 0 || g >= n || seen[g] {
			return false
		}
		seen[g] = true
	}
	return true
}
