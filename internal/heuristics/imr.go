// Package heuristics implements the four resource-allocation heuristics of
// Section 5 of Shestak et al. (IPPS 2005) — Most Worth First (MWF), Tightest
// First (TF), the Permutation-Space GENITOR-based heuristic (PSG), and the
// Seeded PSG — together with the Incremental Mapping Routine (IMR) they all
// share for translating an ordering of strings (a point in the permutation
// space) into an application-to-machine mapping (a point in the solution
// space).
package heuristics

import (
	"repro/internal/feasibility"
	"repro/internal/model"
)

// MapStringIMR runs the Incremental Mapping Routine on string k, assigning
// every application of the string to a machine in the given allocation. The
// IMR is a greedy mapper: it starts from the most computationally intensive
// application (largest machine-averaged work over the period, step 1), then
// repeatedly finds the next most intensive unassigned application and maps
// all intermediate applications toward it, choosing for each application the
// machine that minimizes the larger of the affected machine utilization and
// the affected route utilization (steps 2–4). Ties break toward the lowest
// machine index ("broken arbitrarily" in the paper, deterministic here).
//
// The routine performs no feasibility checking; callers apply the two-stage
// analysis afterwards and roll back with UnassignString on failure.
func MapStringIMR(a *feasibility.Allocation, k int) {
	MapStringIMRMasked(a, k, nil, nil)
}

// MapStringIMRMasked runs the IMR on string k restricted to the machines
// machineOK allows and the inter-machine routes routeOK allows (a nil mask
// allows everything) — the fault-aware variant the failover controller uses
// to re-place strings without touching failed resources. Intra-machine hops
// use no route and are always allowed. It reports whether a full placement
// was found; on failure the string is left completely unassigned. With nil
// masks it never fails and is exactly MapStringIMR.
func MapStringIMRMasked(a *feasibility.Allocation, k int, machineOK func(j int) bool, routeOK func(j1, j2 int) bool) bool {
	return mapStringIMR(a, k, nil, machineOK, routeOK)
}

// mapStringIMR is MapStringIMRMasked given string k's row of imrIntensities,
// or nil to average over the machines here: the walk with the flat chooser,
// Allocation.PlacementScan under the masks, which visits machines along the
// scan order attached to the allocation, or in index order without one.
func mapStringIMR(a *feasibility.Allocation, k int, intensity []float64, machineOK func(j int) bool, routeOK func(j1, j2 int) bool) bool {
	return walkIMR(a, k, intensity, func(i, nb int) int {
		return a.PlacementScan(k, i, nb, machineOK, routeOK)
	})
}

// MapStringWith runs the IMR's walk over string k (steps 1-4: which
// application next, beside which placed neighbour) and puts each application
// on the machine choose(i, nb) returns, nb being the application's one placed
// neighbour (feasibility.Unassigned for the first). It is how a coarser
// placement rule — a pool, say — rides the same walk as the flat IMR, whose
// chooser is Allocation.PlacementScan. A negative choice abandons the string:
// it is left completely unassigned and MapStringWith reports false.
func MapStringWith(a *feasibility.Allocation, k int, choose func(i, nb int) int) bool {
	return walkIMR(a, k, nil, choose)
}

// searchTables are the IMR's constants of a catalog for as long as its floats
// stand: every application's machine-averaged intensity, row k holding string
// k's, and the scan order of its PlacementScans. A search places the same
// strings thousands of times over a catalog that does not change, so it
// builds them once and every trial and lane reads them: a lane attaches the
// order to its scratch allocation once (newSeqDecoder), and place reads the
// intensities. The zero value has neither: each placement averages its own
// intensities, and a scratch with no order attached scans in index order.
type searchTables struct {
	intensity [][]float64
	order     *feasibility.ScanOrder
}

func newSearchTables(sys *model.System) searchTables {
	return searchTables{intensity: imrIntensities(sys), order: feasibility.NewScanOrder(sys)}
}

// imrIntensities returns every application's machine-averaged intensity, row
// k holding string k's.
func imrIntensities(sys *model.System) [][]float64 {
	rows := make([][]float64, len(sys.Strings))
	for k := range rows {
		rows[k] = make([]float64, len(sys.Strings[k].Apps))
		for i := range rows[k] {
			rows[k][i] = sys.AvgWork(k, i)
		}
	}
	return rows
}

// place is mapStringIMR of string k with the tables' intensity row, along
// whatever scan order a carries.
func (t searchTables) place(a *feasibility.Allocation, k int) {
	var row []float64
	if t.intensity != nil {
		row = t.intensity[k]
	}
	mapStringIMR(a, k, row, nil, nil)
}

// walkIMR is the one IMR walk; intensity is string k's row of imrIntensities,
// or nil to average over the machines here.
func walkIMR(a *feasibility.Allocation, k int, intensity []float64, choose func(i, nb int) int) bool {
	sys := a.System()
	n := len(sys.Strings[k].Apps)

	// Machine-averaged intensity t_av[i]*u_av[i]/P[k]; the period is constant
	// within the string, so the raw averaged work preserves the argmax. Without
	// a precomputed row, paper-size strings keep the vector on the stack.
	var stack [16]float64
	if intensity == nil {
		intensity = stack[:]
		if n > len(stack) {
			intensity = make([]float64, n)
		}
		intensity = intensity[:n]
		for i := range intensity {
			intensity[i] = sys.AvgWork(k, i)
		}
	}

	// place puts application i on the machine the chooser selects given its
	// placed neighbour nb (none for the first application), or leaves the
	// string unassigned when the chooser finds no machine.
	place := func(i, nb int) bool {
		j := choose(i, nb)
		if j < 0 {
			a.UnassignString(k)
			return false
		}
		a.Assign(k, i, j)
		return true
	}

	// Steps 1-2: the single most intensive application goes on the allowed
	// machine with the smallest resulting utilization.
	first := mostIntensiveOutside(intensity, 0, -1)
	if !place(first, feasibility.Unassigned) {
		return false
	}

	// Steps 3-4: D = [iLeft, iRight] is the contiguous assigned region;
	// extend it toward each successive most-intensive unassigned target,
	// each application on the machine minimizing the larger of the affected
	// machine and route utilizations.
	iLeft, iRight := first, first
	for iRight-iLeft+1 < n {
		target := mostIntensiveOutside(intensity, iLeft, iRight)
		for target > iRight {
			if !place(iRight+1, iRight) {
				return false
			}
			iRight++
		}
		for target < iLeft {
			if !place(iLeft-1, iLeft) {
				return false
			}
			iLeft--
		}
	}
	return true
}

// mostIntensiveOutside returns the index of the largest intensity outside the
// assigned region [iLeft, iRight] (empty when iLeft > iRight), lowest index on
// ties, or -1 when the region covers everything.
func mostIntensiveOutside(intensity []float64, iLeft, iRight int) int {
	best, bestVal := -1, -1.0
	for i, v := range intensity {
		if (i < iLeft || i > iRight) && v > bestVal {
			best, bestVal = i, v
		}
	}
	return best
}
