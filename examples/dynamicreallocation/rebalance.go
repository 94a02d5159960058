// Slackness hill climbing, the maintenance step of this walkthrough: it buys
// headroom before the next workload surge by re-placing the strings that pin
// the bottleneck resource.

package main

import (
	"sort"

	"repro/internal/feasibility"
	"repro/internal/heuristics"
)

// Rebalance performs slackness hill climbing on a feasible allocation: up to
// maxMoves times, it re-places one string that uses the bottleneck resource
// and keeps the move only if system slackness strictly improves and the
// mapping stays feasible. It returns the accepted move count and the final
// slackness. The allocation must be two-stage feasible on entry. Each trial
// move is one analyzer window, so a rejected move is undone bit-identically;
// an analyzer the caller already attached is reused and left attached.
func Rebalance(alloc *feasibility.Allocation, maxMoves int) (moves int, slackness float64) {
	sys := alloc.System()
	da := alloc.Tracker()
	if da == nil {
		da = feasibility.Track(alloc)
		defer da.Close()
	}
	da.Commit()
	for moves < maxMoves {
		improved := false
		base := alloc.Slackness()
		// Candidate strings on the bottleneck resource, cheapest first so
		// small strings move before whole pipelines.
		cands := bottleneckStrings(alloc)
		sort.Slice(cands, func(a, b int) bool {
			na, nb := len(sys.Strings[cands[a]].Apps), len(sys.Strings[cands[b]].Apps)
			if na != nb {
				return na < nb
			}
			return cands[a] < cands[b]
		})
		for _, k := range cands {
			alloc.UnassignString(k)
			heuristics.MapStringIMR(alloc, k)
			if da.FeasibleAfterDelta() && alloc.Slackness() > base+1e-12 {
				da.Commit()
				moves++
				improved = true
				break
			}
			da.Undo()
		}
		if !improved {
			break
		}
	}
	return moves, alloc.Slackness()
}

// bottleneckStrings returns the mapped strings using the single most
// utilized resource, the allocation's binding resource of Λ.
func bottleneckStrings(alloc *feasibility.Allocation) []int {
	on := make([]bool, len(alloc.System().Strings))
	mark := func(k int) { on[k] = true }
	if r := alloc.BindingResource(); r.IsRoute() {
		alloc.StringsOnRoute(r.From, r.To, mark)
	} else {
		alloc.StringsOnMachine(r.From, mark)
	}
	var out []int
	for k, ok := range on {
		if ok && alloc.Complete(k) {
			out = append(out, k)
		}
	}
	return out
}
