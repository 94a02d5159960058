package heuristics

// checkpoint.go lifts genitor's engine checkpoints to whole searches: a PSG
// run is several independent GENITOR trials, so its checkpoint is one entry
// per trial — finished trials carry their result, interrupted trials carry
// the full engine state. RunContext returns the checkpoint of a search its
// context cut short (SIGINT, -deadline) and ResumeSearch continues it
// bit-identically: the pair the shipsched CLI builds its -checkpoint/-resume
// flags on.

import (
	"context"
	"fmt"

	"repro/internal/genitor"
	"repro/internal/model"
)

// TrialCheckpoint is the state of one PSG trial at interruption time. A
// finished trial (Done) stores only its outcome; an interrupted trial stores
// the complete engine state to resume from. Perm/Fitness/Stats of an
// interrupted trial are its best-so-far, kept for reporting.
type TrialCheckpoint struct {
	Done    bool                `json:"done"`
	Perm    []int               `json:"perm,omitempty"`
	Fitness genitor.Fitness     `json:"fitness"`
	Stats   genitor.Stats       `json:"stats"`
	Engine  *genitor.Checkpoint `json:"engine,omitempty"`
}

// SearchCheckpoint is an interrupted PSG-family search: the heuristic name,
// its configuration, the dimensions of the system it ran against (so a
// resume against the wrong system fails loudly), and one entry per trial.
type SearchCheckpoint struct {
	Heuristic string            `json:"heuristic"`
	Config    PSGConfig         `json:"config"`
	Machines  int               `json:"machines"`
	Strings   int               `json:"strings"`
	Trials    []TrialCheckpoint `json:"trials"`
}

// newSearchCheckpoint assembles a checkpoint from per-trial state.
func newSearchCheckpoint(name string, cfg PSGConfig, sys *model.System, trial func(int) TrialCheckpoint) *SearchCheckpoint {
	scp := &SearchCheckpoint{
		Heuristic: name,
		Config:    cfg,
		Machines:  sys.Machines,
		Strings:   len(sys.Strings),
	}
	for t := 0; t < cfg.Trials; t++ {
		scp.Trials = append(scp.Trials, trial(t))
	}
	return scp
}

// checkpointable reports whether a heuristic produces search checkpoints:
// the GENITOR-based permutation-space searches do, the one-shot heuristics
// (MWF, TF) and the solution-space baseline (SSG) do not.
func checkpointable(name string) bool {
	_, ok := psgVariants[name]
	return ok
}

// Validate checks the checkpoint against the system it is about to resume
// on: known heuristic, valid configuration, matching dimensions, one entry
// per trial, and per-trial structural integrity.
func (scp *SearchCheckpoint) Validate(sys *model.System) error {
	if !checkpointable(scp.Heuristic) {
		return fmt.Errorf("heuristics: checkpoint for %q, which is not a checkpointable heuristic", scp.Heuristic)
	}
	if err := scp.Config.Validate(); err != nil {
		return fmt.Errorf("heuristics: checkpoint config: %w", err)
	}
	if scp.Machines != sys.Machines || scp.Strings != len(sys.Strings) {
		return fmt.Errorf("heuristics: checkpoint for a %d-machine, %d-string system, resuming on %d machines, %d strings",
			scp.Machines, scp.Strings, sys.Machines, len(sys.Strings))
	}
	if len(scp.Trials) != scp.Config.Trials {
		return fmt.Errorf("heuristics: checkpoint has %d trial entries, config wants %d", len(scp.Trials), scp.Config.Trials)
	}
	for i, t := range scp.Trials {
		switch {
		case t.Done:
			if t.Engine != nil {
				return fmt.Errorf("heuristics: checkpoint trial %d is done but carries engine state", i)
			}
			if !genitor.IsPermutation(t.Perm, len(sys.Strings)) {
				return fmt.Errorf("heuristics: checkpoint trial %d result is not a permutation of %d strings", i, len(sys.Strings))
			}
		case t.Engine != nil:
			if err := t.Engine.Validate(); err != nil {
				return fmt.Errorf("heuristics: checkpoint trial %d: %w", i, err)
			}
			if t.Engine.Genes != len(sys.Strings) {
				return fmt.Errorf("heuristics: checkpoint trial %d engine has %d genes, system has %d strings",
					i, t.Engine.Genes, len(sys.Strings))
			}
		}
		// A trial that is neither done nor carries engine state never
		// started; it is restarted from scratch on resume.
	}
	return nil
}

// Interrupted counts the trials that still need work on resume.
func (scp *SearchCheckpoint) Interrupted() int {
	n := 0
	for _, t := range scp.Trials {
		if !t.Done {
			n++
		}
	}
	return n
}

// ResumeSearch continues an interrupted search from its checkpoint: finished
// trials are reused verbatim, interrupted trials resume from their engine
// state, never-started trials run from scratch. The system must be the one
// the original search ran against; the search configuration comes from the
// checkpoint. The combined interrupted-plus-resumed run returns exactly the
// result of an uninterrupted run (a resumed run can itself be interrupted
// again, yielding a fresh checkpoint).
func ResumeSearch(ctx context.Context, sys *model.System, scp *SearchCheckpoint) (*Result, *SearchCheckpoint, error) {
	if scp == nil {
		return nil, nil, fmt.Errorf("heuristics: nil search checkpoint")
	}
	if err := scp.Validate(sys); err != nil {
		return nil, nil, err
	}
	// Validate admitted only checkpointable heuristics: psgVariants entries.
	return psgRun(ctx, sys, scp.Config, scp.Heuristic, scp)
}
