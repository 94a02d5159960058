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

// classKey encodes per-class mapped worth into a single float64 preserving
// lexicographic order: wHigh*1e8 + wMed*1e4 + wLow. The encoding is exact for
// the paper's scales (at most a few thousand strings of worth <= 100, so each
// class term stays below its 1e4 radix and the total well below 2^53).
// mapped reports whether string k is part of the mapping.
func classKey(sys *model.System, mapped func(k int) bool) float64 {
	var high, med, low float64
	for k := range sys.Strings {
		if !mapped(k) {
			continue
		}
		switch w := sys.Strings[k].Worth; {
		case w >= model.WorthHigh:
			high += w
		case w >= model.WorthMedium:
			med += w
		default:
			low += w
		}
	}
	return high*1e8 + med*1e4 + low
}

// ClassedMetric returns the alternate-scheme fitness of a mapping result:
// the lexicographic class key as the primary component and slackness as the
// secondary.
func ClassedMetric(sys *model.System, r *Result) genitor.Fitness {
	return genitor.Fitness{
		Primary:   classKey(sys, r.Alloc.Complete),
		Secondary: r.Metric.Slackness,
	}
}

// classedScore is the alternate-scheme scoreFunc over a decoded allocation:
// exactly ClassedMetric, read off the allocation's Complete flags.
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
	classOf := func(k int) int {
		switch w := sys.Strings[k].Worth; {
		case w >= model.WorthHigh:
			return 0
		case w >= model.WorthMedium:
			return 1
		default:
			return 2
		}
	}
	order := make([]int, 0, len(tf))
	for class := 0; class < 3; class++ {
		for _, k := range tf {
			if classOf(k) == class {
				order = append(order, k)
			}
		}
	}
	return order
}

// ClassedPSG runs the permutation-space GENITOR search under the alternate
// worth scheme: the same operators, stopping rules, and parallel trial
// machinery as PSG, but fitness compares mapped worth class by class. The
// class-scheme ordering and the plain MWF ordering seed the initial
// population.
func ClassedPSG(sys *model.System, cfg PSGConfig) *Result {
	return psgRun(sys, cfg, "ClassedPSG")
}

// MappedWorthByClass reports the worth mapped per class (high, medium, low),
// the quantity the alternate scheme optimizes lexicographically.
func MappedWorthByClass(sys *model.System, r *Result) (high, med, low float64) {
	for k := range sys.Strings {
		if !r.Alloc.Complete(k) {
			continue
		}
		switch w := sys.Strings[k].Worth; {
		case w >= model.WorthHigh:
			high += w
		case w >= model.WorthMedium:
			med += w
		default:
			low += w
		}
	}
	return high, med, low
}
