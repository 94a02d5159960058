package genitor

// checkpoint.go makes a GENITOR run killable: the complete search state —
// configuration, population, counters, and the exact position in the keyed
// random stream — serializes to JSON, and Restore rebuilds an engine that
// continues bit-identically to the run that was interrupted. The trick is the
// random stream: *rand.Rand state is not serializable, but the engine draws
// from a counted rng.Stream whose position is pinned by the draw count alone,
// and a keyed stream restores to any recorded position in O(1)
// (rng.Stream.Skip), so the checkpoint stores just the seed and the count.

import (
	"fmt"

	"repro/internal/rng"
)

// engineStream derives the engine's keyed random stream: root Config.Seed
// under the genitor subsystem label. Every draw the engine makes — through
// its *rand.Rand or otherwise — advances and is counted by this stream.
func engineStream(seed int64) *rng.Stream {
	return rng.NewStream(rng.Key(seed, rng.SubsystemGenitor, 0))
}

// Chromosome is one serialized population member.
type Chromosome struct {
	Perm    []int   `json:"perm"`
	Fitness Fitness `json:"fitness"`
}

// Checkpoint is the complete serializable state of an engine between
// iterations: restore it with Restore and the continued run is bit-identical
// to one that was never interrupted. Fitness values are stored, not
// re-evaluated, so restoring does not need the evaluator to be cheap — but it
// does need the evaluator to be the same pure function, or the stored
// fitnesses and the continued search would disagree.
type Checkpoint struct {
	// Version guards the format; CheckpointVersion is the only one written.
	Version int `json:"version"`
	// Config is the engine configuration, including the seed the random
	// stream is replayed from.
	Config Config `json:"config"`
	// Genes is the chromosome length.
	Genes int `json:"genes"`
	// Population is the rank-sorted population, best first.
	Population []Chromosome `json:"population"`
	// Iterations and Evaluations are the counters accumulated so far.
	Iterations  int `json:"iterations"`
	Evaluations int `json:"evaluations"`
	// Stall is the elite-stall counter at the checkpoint.
	Stall int `json:"stall"`
	// RandCalls is the number of draws consumed from the seeded source;
	// Restore burns this many draws to re-align the stream.
	RandCalls uint64 `json:"rand_calls"`
}

// CheckpointVersion is the checkpoint format written by Engine.Checkpoint.
// Version 2 moved the engine onto keyed rng.Stream randomness: the stream a
// version-1 RandCalls count refers to no longer exists, so version-1 files
// are rejected rather than resumed onto a different trajectory.
const CheckpointVersion = 2

// Checkpoint captures the engine's complete state at an iteration boundary.
// The copy is deep: the engine can keep running without disturbing it.
func (e *Engine) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Version:     CheckpointVersion,
		Config:      e.cfg,
		Genes:       e.n,
		Population:  make([]Chromosome, 0, len(e.pop)),
		Iterations:  e.stats.Iterations,
		Evaluations: e.stats.Evaluations,
		Stall:       e.stall,
		RandCalls:   e.src.Calls(),
	}
	for _, m := range e.pop {
		cp.Population = append(cp.Population, Chromosome{
			Perm:    append([]int(nil), m.perm...),
			Fitness: m.fitness,
		})
	}
	return cp
}

// Validate reports structural errors in a checkpoint: version, configuration,
// population size, permutation integrity, and rank order are all checked, so
// a corrupt or hand-edited file fails loudly instead of resuming a nonsense
// search.
func (cp *Checkpoint) Validate() error {
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("genitor: checkpoint version %d, want %d", cp.Version, CheckpointVersion)
	}
	if err := cp.Config.Validate(); err != nil {
		return fmt.Errorf("genitor: checkpoint config: %w", err)
	}
	if cp.Genes < 1 {
		return fmt.Errorf("genitor: checkpoint chromosome length %d, want >= 1", cp.Genes)
	}
	if len(cp.Population) != cp.Config.PopulationSize {
		return fmt.Errorf("genitor: checkpoint population %d, config wants %d",
			len(cp.Population), cp.Config.PopulationSize)
	}
	for i, c := range cp.Population {
		if !IsPermutation(c.Perm, cp.Genes) {
			return fmt.Errorf("genitor: checkpoint member %d is not a permutation of %d genes", i, cp.Genes)
		}
		if i > 0 && c.Fitness.Better(cp.Population[i-1].Fitness) {
			return fmt.Errorf("genitor: checkpoint population not rank-sorted at member %d", i)
		}
	}
	if cp.Iterations < 0 || cp.Evaluations < 0 || cp.Stall < 0 {
		return fmt.Errorf("genitor: checkpoint counters negative (iterations %d, evaluations %d, stall %d)",
			cp.Iterations, cp.Evaluations, cp.Stall)
	}
	return nil
}

// Restore rebuilds an engine from a checkpoint so RunContext continues the
// interrupted search bit-identically: the population and counters are copied
// back, and the keyed random stream is re-derived from the checkpointed seed
// and fast-forwarded to the recorded draw count in O(1) — no draws are
// replayed. The evaluator lanes must compute the same pure fitness function
// as the original run (lane count is free to differ — it never affects
// results). Stored fitnesses are trusted, not re-evaluated.
func Restore(cp *Checkpoint, lanes []Evaluator) (*Engine, error) {
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	if len(lanes) < 1 {
		return nil, fmt.Errorf("genitor: no evaluator lanes")
	}
	for i, l := range lanes {
		if l == nil {
			return nil, fmt.Errorf("genitor: evaluator lane %d is nil", i)
		}
	}
	src := engineStream(cp.Config.Seed)
	src.Skip(cp.RandCalls)
	e := &Engine{
		cfg:   cp.Config,
		n:     cp.Genes,
		lanes: lanes,
		src:   src,
		rng:   src.Rand(),
		pop:   make([]member, 0, len(cp.Population)),
		stats: Stats{Iterations: cp.Iterations, Evaluations: cp.Evaluations},
		stall: cp.Stall,
		tel:   newEngineTelemetry(),
	}
	for _, c := range cp.Population {
		e.pop = append(e.pop, member{perm: append([]int(nil), c.Perm...), fitness: c.Fitness})
	}
	return e, nil
}
