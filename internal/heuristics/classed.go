package heuristics

import (
	"repro/internal/feasibility"
	"repro/internal/genitor"
	"repro/internal/model"
)

// Alternate worth scheme (Section 4): "A different, alternate scheme is
// possible, where higher worth strings have a value of more than the total
// value of any number of strings of medium or low worth. In such a scheme,
// high worth strings can be put in a special class. The content of this class
// is allocated first in the system. Such a scheme, described in [25], is
// outside the current requirements of this work."
//
// This file implements that future-work scheme (experiment E14 in DESIGN.md):
// the allocation objective becomes lexicographic across worth classes — first
// maximize the worth mapped in the high class, then in the medium class, then
// in the low class, then system slackness. One mapped high-worth string
// always beats any number of mapped medium/low strings.

// worthClass is a worth's class under the alternate scheme: 0 high, 1
// medium, 2 low (the model's WorthHigh/WorthMedium thresholds).
func worthClass(w float64) int {
	switch {
	case w >= model.WorthHigh:
		return 0
	case w >= model.WorthMedium:
		return 1
	default:
		return 2
	}
}

// classWorth sums the worth of the strings mapped reports, per worthClass,
// in ascending string order.
func classWorth(sys *model.System, mapped func(k int) bool) (sums [3]float64) {
	for k := range sys.Strings {
		if mapped(k) {
			w := sys.Strings[k].Worth
			sums[worthClass(w)] += w
		}
	}
	return sums
}

// classKey encodes per-class mapped worth into a single float64 preserving
// lexicographic order: wHigh*1e8 + wMed*1e4 + wLow. The encoding is exact for
// the paper's scales (at most a few thousand strings of worth <= 100, so each
// class term stays below its 1e4 radix and the total well below 2^53).
// mapped reports whether string k is part of the mapping.
func classKey(sys *model.System, mapped func(k int) bool) float64 {
	c := classWorth(sys, mapped)
	return c[0]*1e8 + c[1]*1e4 + c[2]
}

// classedScore is the alternate-scheme scoreFunc over a decoded allocation:
// the lexicographic class key as the primary component and slackness as the
// secondary.
func classedScore(sys *model.System) scoreFunc {
	return func(a *feasibility.Allocation) genitor.Fitness {
		return genitor.Fitness{
			Primary:   classKey(sys, a.Complete),
			Secondary: a.Slackness(),
		}
	}
}

// ClassedOrder returns the class-scheme seed ordering: strings grouped by
// worth class (high first), ordered by averaged tightness within each class —
// the "special class allocated first in the system" arrangement.
func ClassedOrder(sys *model.System) []int {
	tf := TFOrder(sys) // tightest first within class
	order := make([]int, 0, len(tf))
	for class := 0; class < 3; class++ {
		for _, k := range tf {
			if worthClass(sys.Strings[k].Worth) == class {
				order = append(order, k)
			}
		}
	}
	return order
}

// MappedWorthByClass reports the worth mapped per class (high, medium, low),
// the quantity the alternate scheme optimizes lexicographically.
func MappedWorthByClass(sys *model.System, r *Result) (high, med, low float64) {
	c := classWorth(sys, r.Alloc.Complete)
	return c[0], c[1], c[2]
}
