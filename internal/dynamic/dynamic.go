// Package dynamic implements the runtime reallocation layer the paper's
// introduction motivates: "the TSCE system operates in an environment that
// undergoes unpredictable changes, e.g., in the system input workload, which
// may cause QoS violations. Therefore, even though a good initial allocation
// ... may ensure that no QoS constraints are violated when the system is
// first put into operation, dynamic mapping approaches may be needed to
// reallocate resources during execution (e.g., [22, 26])."
//
// The controller is analysis-driven, in the spirit of the paper: after an
// observed workload change (modeled as per-string scale factors on CPU work
// and transfer sizes), it re-evaluates the two-stage feasibility analysis on
// the scaled system and repairs the allocation with the least disruptive
// action sequence:
//
//  1. migrate — unmap a violating (or overload-contributing) string and
//     re-place it with the IMR on the now-current utilization state;
//  2. evict — if no placement restores feasibility, drop the string
//     (lowest-worth victims first), freeing capacity for the rest.
package dynamic

import (
	"fmt"

	"repro/internal/feasibility"
	"repro/internal/model"
)

// ScaleWorkload returns the system with every string's demand scaled by gamma
// (gamma > 0) under model.ScaleDemand — the workload-increase model of the
// robustness experiments. The result is a model.ScaledView of sys.
func ScaleWorkload(sys *model.System, gamma float64) (*model.System, error) {
	if gamma <= 0 {
		return nil, fmt.Errorf("dynamic: workload scale %v, want positive", gamma)
	}
	return ScaleStrings(sys, uniformScales(len(sys.Strings), gamma))
}

// ScaleStrings scales each string k by gammas[k], modeling non-uniform
// workload change (some sensors surge while others idle). The result is
// model.ScaledView(sys, gammas): fresh demand floats over sys's own bandwidth
// and utilization rows, which neither side may write; sys is left unchanged.
// An allocation over sys carries onto the view as
// feasibility.FromSnapshot(view, alloc.Snapshot()).
func ScaleStrings(sys *model.System, gammas []float64) (*model.System, error) {
	if len(gammas) != len(sys.Strings) {
		return nil, fmt.Errorf("dynamic: %d scale factors for %d strings", len(gammas), len(sys.Strings))
	}
	for k, g := range gammas {
		if g <= 0 {
			return nil, fmt.Errorf("dynamic: string %d scale %v, want positive", k, g)
		}
	}
	return model.ScaledView(sys, gammas), nil
}

func uniformScales(n int, gamma float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = gamma
	}
	return out
}

// ActionKind classifies a repair action.
type ActionKind string

const (
	// Migrated: the string was re-placed on (possibly) different machines.
	Migrated ActionKind = "migrated"
	// Evicted: the string was dropped from the mapping.
	Evicted ActionKind = "evicted"
	// Reclaimed: the string was evicted earlier in the same repair and
	// re-placed once the rest of the repair settled; it ends the repair
	// mapped.
	Reclaimed ActionKind = "reclaimed"
)

// Action is one repair step.
type Action struct {
	StringID int
	Kind     ActionKind
	// MovedApps counts applications whose machine changed relative to the
	// string's placement before the repair (Migrated and Reclaimed only).
	MovedApps int
	// CostSeconds estimates the recovery cost of the action: the nominal
	// execution seconds of one data set on every moved application's new
	// machine — the work that must be re-staged and re-executed for the
	// in-flight data set the move disrupts. Evictions cost nothing to
	// execute (the loss is captured by the worth drop instead).
	CostSeconds float64
}

// Result summarizes a repair.
type Result struct {
	Actions []Action
	// Evacuated lists the strings a failover forced off failed resources
	// before repair (Survive only; empty for Repair).
	Evacuated []int
	// WorthBefore and WorthAfter are the mapped worth before and after the
	// repair; Retained is their ratio in [0, 1] (1 when nothing was lost or
	// nothing was mapped to begin with).
	WorthBefore, WorthAfter float64
	// Retained is WorthAfter / WorthBefore.
	Retained float64
	// CostSeconds is the summed recovery cost of all actions.
	CostSeconds float64
	// SlacknessAfter is the repaired mapping's slackness.
	SlacknessAfter float64
	// Feasible reports whether repair reached a two-stage-feasible state
	// (it always does: in the worst case everything is evicted).
	Feasible bool
}

// Counts tallies the actions by kind. Invariants callers may rely on (pinned
// by TestCountsNetEvictionsInvariant): migrated+evicted+reclaimed equals
// len(r.Actions); reclaimed <= evicted, because every Reclaimed action
// re-places a string this same repair evicted; and evicted-reclaimed equals
// NetEvictions(), the number of strings that end the repair unmapped.
func (r *Result) Counts() (migrated, evicted, reclaimed int) {
	for _, a := range r.Actions {
		switch a.Kind {
		case Migrated:
			migrated++
		case Evicted:
			evicted++
		case Reclaimed:
			reclaimed++
		}
	}
	return migrated, evicted, reclaimed
}

// NetEvictions returns the number of strings that end the repair unmapped:
// evictions minus later reclaims.
func (r *Result) NetEvictions() int {
	_, evicted, reclaimed := r.Counts()
	return evicted - reclaimed
}

// Repair restores two-stage feasibility of the allocation after a workload
// change, mutating alloc in place; the mapped strings are its complete ones.
// Victims are chosen lowest worth first (ties: higher tightness first, then
// ID) among the strings implicated by the current violations; each victim is
// first re-placed by the IMR and kept if the placement is feasible, otherwise
// evicted. A final reclaim pass re-places evicted strings that fit again once
// the repair settled (highest worth first), so a string stays evicted only if
// its re-placement on the final allocation is infeasible.
func Repair(alloc *feasibility.Allocation) *Result {
	r := newRepairer(alloc, nil, nil)
	r.repairLoop()
	r.reclaim()
	return r.result()
}

// pickVictim selects the next string to act on: among strings implicated by
// stage-2 violations or assigned to over-utilized resources, the one with the
// lowest worth (ties: tightest first so the disruptive re-placement helps the
// most constrained string, then lowest ID). Violations come from the delta
// analyzer's committed set — O(damage) instead of a fresh stage-2 scan per
// call — the over-utilized resources from one O(M + active routes) walk, and
// worth/tightness ties use the epsilon comparison so float noise cannot flip
// the victim choice between otherwise-identical runs.
func (r *repairer) pickVictim() int {
	alloc := r.alloc
	sys := alloc.System()
	implicated := make([]bool, len(sys.Strings))
	mark := func(k int) { implicated[k] = true }
	for _, v := range r.da.ViolationsAfterDelta() {
		mark(v.StringID)
	}
	alloc.StringsOverLimit(feasibility.CapacityLimit, mark)
	// Ascending string ID, not map order: AlmostEqual is not transitive, so
	// with a three-way near-tie the winner depends on the visiting order,
	// which must therefore be fixed. Full ties keep the lower ID.
	best := -1
	for k, in := range implicated {
		if !in || !alloc.Complete(k) {
			continue
		}
		if best < 0 {
			best = k
			continue
		}
		wk, wb := sys.Strings[k].Worth, sys.Strings[best].Worth
		if !feasibility.AlmostEqual(wk, wb) {
			if wk < wb {
				best = k
			}
			continue
		}
		tk, tb := alloc.Tightness(k), alloc.Tightness(best)
		if !feasibility.AlmostEqual(tk, tb) && tk > tb {
			best = k
		}
	}
	return best
}

func movedApps(before, after []int) int {
	n := 0
	for i := range before {
		if before[i] != after[i] {
			n++
		}
	}
	return n
}
