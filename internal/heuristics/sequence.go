package heuristics

import (
	"fmt"
	"sort"

	"repro/internal/feasibility"
	"repro/internal/genitor"
	"repro/internal/model"
)

// Result is the outcome of running a mapping heuristic on a system.
type Result struct {
	// Name of the heuristic that produced the result.
	Name string
	// Alloc is the final allocation; string k is part of the final feasible
	// mapping iff Alloc.Complete(k).
	Alloc *feasibility.Allocation
	// Order is the string permutation the sequential mapper followed.
	Order []int
	// NumMapped is the number of strings in the final mapping.
	NumMapped int
	// Metric is the two-component performance measure (total worth,
	// system slackness) of the final mapping.
	Metric feasibility.Metric
	// Evaluations counts permutation decodings performed (1 for the
	// one-shot heuristics; population work for the PSG variants).
	Evaluations int
	// Iterations and StopReason describe the GENITOR run for the PSG
	// variants; zero-valued otherwise.
	Iterations int
	StopReason string
}

// MapSequence translates a permutation of string indices into a mapping by
// applying the IMR to one string at a time in the given order, running the
// two-stage feasibility analysis after each string. Following the MWF/TF/PSG
// semantics of Section 5, the first string whose addition makes the
// intermediate mapping infeasible is rolled back and the mapping process
// terminates, so only a prefix of the order is mapped.
//
// The order must be a permutation of all string indices; MapSequence panics
// otherwise. A repeated index would re-run the IMR over an already-assigned
// string and corrupt the utilization bookkeeping, and an out-of-range index
// has no string to map — both are caller bugs, never valid data.
func MapSequence(sys *model.System, order []int) *Result {
	return mapSequence(sys, order, false, MapStringIMR)
}

// MapSequenceWith is MapSequence with the per-string placement supplied:
// place(a, k) puts string k on a, and everything around it — the permutation
// check, one analyzer window per string, stop at the first infeasible one —
// is the sequential mapper's. The pooled mapper decodes its orders through it.
func MapSequenceWith(sys *model.System, order []int, place func(a *feasibility.Allocation, k int)) *Result {
	return mapSequence(sys, order, false, place)
}

// mapSequence runs mapOrder over a fresh allocation of sys.
func mapSequence(sys *model.System, order []int, skip bool, place func(a *feasibility.Allocation, k int)) *Result {
	validateOrder(len(sys.Strings), order)
	a := feasibility.New(sys)
	da := feasibility.Track(a)
	defer da.Close()
	_, numMapped := mapOrder(da, order, skip, func(k int) { place(a, k) })
	return &Result{
		Alloc:       a,
		Order:       append([]int(nil), order...),
		NumMapped:   numMapped,
		Metric:      a.Metric(),
		Evaluations: 1,
	}
}

// mapOrder is the one sequential mapper: place each string of order in turn
// on the allocation da tracks, evaluate the placement incrementally against
// the delta it introduced, and Commit it or Undo it bit-identically — a
// window must end in one of the two, and Undo takes a rejected string back
// off by re-placing the strings the window touched at their pre-window
// vectors, here unassigning the one string, each Unassign repricing its
// roster tails. After a failure it stops
// (stop-on-failure, the paper's semantics) or, with skip, carries on with the
// rest. It returns how many order entries it consumed — the mapped prefix plus
// the string that failed, if any — and how many strings it mapped. The order
// is not checked here (the decoder bank's hot path hands it GENITOR's valid
// permutations); entry points that take one from a caller validateOrder first.
func mapOrder(da *feasibility.DeltaAnalyzer, order []int, skip bool, place func(k int)) (consumed, mapped int) {
	for idx, k := range order {
		place(k)
		if da.FeasibleAfterDelta() {
			da.Commit()
			mapped++
			continue
		}
		da.Undo()
		if !skip {
			return idx + 1, mapped
		}
	}
	return len(order), mapped
}

// MapSequenceSkip is an extension of MapSequence with skip-on-failure
// termination semantics: a string whose addition makes the intermediate
// mapping infeasible is rolled back and *skipped*, and mapping continues with
// the rest of the order. The paper's heuristics terminate at the first
// failure; the TerminationStudy ablation (DESIGN.md E11) quantifies how much
// worth that sacrifices. Like MapSequence, it panics unless order is a
// permutation of all string indices.
func MapSequenceSkip(sys *model.System, order []int) *Result {
	return mapSequence(sys, order, true, MapStringIMR)
}

// MWFOrder returns the Most Worth First permutation: strings ranked by worth,
// highest first, ties broken by string index for determinism.
func MWFOrder(sys *model.System) []int {
	order := identity(len(sys.Strings))
	sort.SliceStable(order, func(x, y int) bool {
		return sys.Strings[order[x]].Worth > sys.Strings[order[y]].Worth
	})
	return order
}

// TFOrder returns the Tightest First permutation: strings ranked by the
// allocation-independent averaged relative tightness (equation (4) with all
// allocation-specific terms replaced by machine averages), tightest first.
func TFOrder(sys *model.System) []int {
	tight := make([]float64, len(sys.Strings))
	for k := range sys.Strings {
		tight[k] = sys.AvgTightness(k)
	}
	order := identity(len(sys.Strings))
	sort.SliceStable(order, func(x, y int) bool {
		return tight[order[x]] > tight[order[y]]
	})
	return order
}

// MWF runs the Most Worth First heuristic of Section 5.
func MWF(sys *model.System) *Result {
	r := MapSequence(sys, MWFOrder(sys))
	r.Name = "MWF"
	return r
}

// TF runs the Tightest First heuristic of Section 5.
func TF(sys *model.System) *Result {
	r := MapSequence(sys, TFOrder(sys))
	r.Name = "TF"
	return r
}

// validateOrder panics unless order is a permutation of 0..n-1: duplicate or
// out-of-range string indices would silently corrupt the sequential mapper's
// incremental bookkeeping, so they are rejected up front.
func validateOrder(n int, order []int) {
	if !genitor.IsPermutation(order, n) {
		panic(fmt.Sprintf("heuristics: order %v is not a permutation of %d string indices", order, n))
	}
}

func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}
