package dag

import (
	"sort"

	"repro/internal/genitor"
)

// MapTaskIMR generalizes the Incremental Mapping Routine to DAGs: starting
// from the most computationally intensive node (machine-averaged work), it
// grows the assigned region along graph edges — always placing next the most
// intensive node adjacent to the region (falling back to the global most
// intensive for disconnected components) — choosing for each node the machine
// minimizing the maximum of the affected machine utilization and the route
// utilizations of its already-assigned incident edges. On a chain this
// reduces to the string IMR's left/right extension with the same candidate
// cost, though the visit order may differ when intensities interleave.
func MapTaskIMR(a *Allocation, t int) {
	sys := a.System()
	task := &sys.Tasks[t]
	n := len(task.Nodes)
	intensity := make([]float64, n)
	for i := 0; i < n; i++ {
		intensity[i] = sys.AvgWork(t, i)
	}
	assigned := make([]bool, n)
	// Neighbor lists once.
	adj := make([][]int, n)
	for _, e := range task.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}

	next := func() int {
		bestAdj, bestAdjVal := -1, -1.0
		bestAny, bestAnyVal := -1, -1.0
		for i := 0; i < n; i++ {
			if assigned[i] {
				continue
			}
			if intensity[i] > bestAnyVal {
				bestAny, bestAnyVal = i, intensity[i]
			}
			touching := false
			for _, nb := range adj[i] {
				if assigned[nb] {
					touching = true
					break
				}
			}
			if touching && intensity[i] > bestAdjVal {
				bestAdj, bestAdjVal = i, intensity[i]
			}
		}
		if bestAdj >= 0 {
			return bestAdj
		}
		return bestAny
	}

	for placed := 0; placed < n; placed++ {
		i := next()
		bestJ, bestVal := 0, -1.0
		for j := 0; j < sys.Machines; j++ {
			val := a.MachineUtilization(j) + task.Nodes[i].Work(j)/task.Period
			for e := range task.Edges {
				edge := &task.Edges[e]
				var j1, j2 int
				switch {
				case edge.From == i && assigned[edge.To]:
					j1, j2 = j, a.Machine(t, edge.To)
				case edge.To == i && assigned[edge.From]:
					j1, j2 = a.Machine(t, edge.From), j
				default:
					continue
				}
				if j1 == j2 {
					continue
				}
				u := a.RouteUtilization(j1, j2) + sys.RouteDemandUtil(edge.OutputKB, task.Period, j1, j2)
				if u > val {
					val = u
				}
			}
			if bestVal < 0 || val < bestVal {
				bestJ, bestVal = j, val
			}
		}
		a.Assign(t, i, bestJ)
		assigned[i] = true
	}
}

// Result mirrors heuristics.Result for DAG systems.
type Result struct {
	Name      string
	Alloc     *Allocation
	Order     []int
	NumMapped int
	Worth     float64
	Slackness float64
}

// MapSequence maps tasks in the given order with the paper's
// terminate-at-first-failure semantics.
func MapSequence(sys *System, order []int) *Result {
	a := NewAllocation(sys)
	num := 0
	for _, t := range order {
		MapTaskIMR(a, t)
		if !a.TwoStageFeasible() {
			a.UnassignTask(t)
			break
		}
		num++
	}
	return &Result{
		Alloc:     a,
		Order:     append([]int(nil), order...),
		NumMapped: num,
		Worth:     a.Worth(),
		Slackness: a.Slackness(),
	}
}

// MWFOrder ranks tasks by worth, highest first.
func MWFOrder(sys *System) []int {
	order := identity(len(sys.Tasks))
	sort.SliceStable(order, func(a, b int) bool {
		return sys.Tasks[order[a]].Worth > sys.Tasks[order[b]].Worth
	})
	return order
}

// TFOrder ranks tasks by averaged critical-path tightness, tightest first.
func TFOrder(sys *System) []int {
	tight := make([]float64, len(sys.Tasks))
	for t := range sys.Tasks {
		tight[t] = sys.AvgTightness(t)
	}
	order := identity(len(sys.Tasks))
	sort.SliceStable(order, func(a, b int) bool { return tight[order[a]] > tight[order[b]] })
	return order
}

// MWF maps tasks most worth first.
func MWF(sys *System) *Result {
	r := MapSequence(sys, MWFOrder(sys))
	r.Name = "MWF"
	return r
}

// TF maps tasks tightest first by averaged critical-path tightness.
func TF(sys *System) *Result {
	r := MapSequence(sys, TFOrder(sys))
	r.Name = "TF"
	return r
}

// PSG runs the permutation-space GENITOR search over task orderings; cfg
// follows the string PSG conventions. Seeded injects the MWF and TF orders.
func PSG(sys *System, cfg genitor.Config, seeded bool) *Result {
	var seeds [][]int
	if seeded {
		seeds = [][]int{MWFOrder(sys), TFOrder(sys)}
	}
	eval := func(perm []int) genitor.Fitness {
		r := MapSequence(sys, perm)
		return genitor.Fitness{Primary: r.Worth, Secondary: r.Slackness}
	}
	eng, err := genitor.New(cfg, len(sys.Tasks), seeds, eval)
	if err != nil {
		panic("dag: " + err.Error())
	}
	perm, _, _ := eng.Run()
	r := MapSequence(sys, perm)
	if seeded {
		r.Name = "SeededPSG"
	} else {
		r.Name = "PSG"
	}
	return r
}

func identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
