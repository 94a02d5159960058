package dag

import (
	"fmt"
	"math"
)

// Unassigned marks a node without a machine.
const Unassigned = -1

const utilEps = 1e-9

type nodeRef struct{ t, i int }
type edgeRef struct{ t, e int }

// Allocation is a mutable node-to-machine mapping over a DAG system, with
// the same incremental utilization bookkeeping as feasibility.Allocation.
type Allocation struct {
	sys       *System
	machineOf [][]int
	nAssigned []int

	machineUtil []float64
	routeUtil   [][]float64
	perMachine  [][]nodeRef
	perRoute    [][][]edgeRef

	tightness []float64
	topo      [][]int // cached topological orders
}

// NewAllocation returns an empty allocation over sys (which must validate).
func NewAllocation(sys *System) *Allocation {
	m := sys.Machines
	a := &Allocation{
		sys:         sys,
		machineOf:   make([][]int, len(sys.Tasks)),
		nAssigned:   make([]int, len(sys.Tasks)),
		machineUtil: make([]float64, m),
		routeUtil:   make([][]float64, m),
		perMachine:  make([][]nodeRef, m),
		perRoute:    make([][][]edgeRef, m),
		tightness:   make([]float64, len(sys.Tasks)),
		topo:        make([][]int, len(sys.Tasks)),
	}
	for t := range sys.Tasks {
		a.machineOf[t] = make([]int, len(sys.Tasks[t].Nodes))
		for i := range a.machineOf[t] {
			a.machineOf[t][i] = Unassigned
		}
		a.tightness[t] = math.NaN()
		order, err := sys.Tasks[t].TopologicalOrder()
		if err != nil {
			panic("dag: " + err.Error())
		}
		a.topo[t] = order
	}
	for j := 0; j < m; j++ {
		a.routeUtil[j] = make([]float64, m)
		a.perRoute[j] = make([][]edgeRef, m)
	}
	return a
}

// System returns the underlying system.
func (a *Allocation) System() *System { return a.sys }

// Machine returns the machine of node i of task t, or Unassigned.
func (a *Allocation) Machine(t, i int) int { return a.machineOf[t][i] }

// Complete reports whether every node of task t is assigned.
func (a *Allocation) Complete(t int) bool { return a.nAssigned[t] == len(a.sys.Tasks[t].Nodes) }

// MachineUtilization returns the equation (2) sum for machine j.
func (a *Allocation) MachineUtilization(j int) float64 { return a.machineUtil[j] }

// RouteUtilization returns the equation (3) sum for route (j1, j2).
func (a *Allocation) RouteUtilization(j1, j2 int) float64 {
	if j1 == j2 {
		return 0
	}
	return a.routeUtil[j1][j2]
}

// Assign maps node i of task t to machine j.
func (a *Allocation) Assign(t, i, j int) {
	if a.machineOf[t][i] != Unassigned {
		panic(fmt.Sprintf("dag: node (%d,%d) already assigned", t, i))
	}
	if j < 0 || j >= a.sys.Machines {
		panic(fmt.Sprintf("dag: machine %d out of range", j))
	}
	task := &a.sys.Tasks[t]
	a.machineOf[t][i] = j
	a.nAssigned[t]++
	a.machineUtil[j] += task.Nodes[i].Work(j) / task.Period
	a.perMachine[j] = append(a.perMachine[j], nodeRef{t, i})
	for e := range task.Edges {
		edge := &task.Edges[e]
		if edge.From == i {
			if to := a.machineOf[t][edge.To]; to != Unassigned {
				a.addRoute(j, to, t, e)
			}
		}
		if edge.To == i {
			if from := a.machineOf[t][edge.From]; from != Unassigned {
				a.addRoute(from, j, t, e)
			}
		}
	}
	if a.Complete(t) {
		a.tightness[t] = a.computeTightness(t)
	}
}

// Unassign removes the assignment of node i of task t.
func (a *Allocation) Unassign(t, i int) {
	j := a.machineOf[t][i]
	if j == Unassigned {
		panic(fmt.Sprintf("dag: node (%d,%d) not assigned", t, i))
	}
	task := &a.sys.Tasks[t]
	if a.Complete(t) {
		a.tightness[t] = math.NaN()
	}
	a.machineOf[t][i] = Unassigned
	a.nAssigned[t]--
	a.machineUtil[j] -= task.Nodes[i].Work(j) / task.Period
	a.perMachine[j] = removeNodeRef(a.perMachine[j], nodeRef{t, i})
	for e := range task.Edges {
		edge := &task.Edges[e]
		if edge.From == i {
			if to := a.machineOf[t][edge.To]; to != Unassigned {
				a.removeRoute(j, to, t, e)
			}
		}
		if edge.To == i {
			if from := a.machineOf[t][edge.From]; from != Unassigned {
				a.removeRoute(from, j, t, e)
			}
		}
	}
}

// UnassignTask removes all of task t's assignments.
func (a *Allocation) UnassignTask(t int) {
	for i, j := range a.machineOf[t] {
		if j != Unassigned {
			a.Unassign(t, i)
		}
	}
}

func (a *Allocation) addRoute(j1, j2, t, e int) {
	if j1 == j2 {
		return
	}
	task := &a.sys.Tasks[t]
	a.routeUtil[j1][j2] += a.sys.RouteDemandUtil(task.Edges[e].OutputKB, task.Period, j1, j2)
	a.perRoute[j1][j2] = append(a.perRoute[j1][j2], edgeRef{t, e})
}

func (a *Allocation) removeRoute(j1, j2, t, e int) {
	if j1 == j2 {
		return
	}
	task := &a.sys.Tasks[t]
	a.routeUtil[j1][j2] -= a.sys.RouteDemandUtil(task.Edges[e].OutputKB, task.Period, j1, j2)
	a.perRoute[j1][j2] = removeEdgeRef(a.perRoute[j1][j2], edgeRef{t, e})
}

func removeNodeRef(refs []nodeRef, r nodeRef) []nodeRef {
	for idx, have := range refs {
		if have == r {
			last := len(refs) - 1
			refs[idx] = refs[last]
			return refs[:last]
		}
	}
	panic("dag: machine roster missing node")
}

func removeEdgeRef(refs []edgeRef, r edgeRef) []edgeRef {
	for idx, have := range refs {
		if have == r {
			last := len(refs) - 1
			refs[idx] = refs[last]
			return refs[:last]
		}
	}
	panic("dag: route roster missing edge")
}

// computeTightness evaluates the critical-path generalization of equation
// (4): the longest no-sharing source-to-sink completion time over Lmax.
func (a *Allocation) computeTightness(t int) float64 {
	return a.criticalPath(t, func(i int) float64 {
		return a.sys.Tasks[t].Nodes[i].NominalTime[a.machineOf[t][i]]
	}, func(e int) float64 {
		edge := &a.sys.Tasks[t].Edges[e]
		return a.sys.RouteTransferSeconds(edge.OutputKB, a.machineOf[t][edge.From], a.machineOf[t][edge.To])
	}) / a.sys.Tasks[t].MaxLatency
}

// criticalPath returns the longest completion time through task t's graph
// under the given node and edge duration functions.
func (a *Allocation) criticalPath(t int, nodeDur func(int) float64, edgeDur func(int) float64) float64 {
	task := &a.sys.Tasks[t]
	start := make([]float64, len(task.Nodes))
	longest := 0.0
	for _, v := range a.topo[t] {
		finish := start[v] + nodeDur(v)
		if finish > longest {
			longest = finish
		}
		for e := range task.Edges {
			edge := &task.Edges[e]
			if edge.From != v {
				continue
			}
			arrive := finish + edgeDur(e)
			if arrive > start[edge.To] {
				start[edge.To] = arrive
			}
		}
	}
	return longest
}

// Tightness returns the generalized T[t]; the task must be complete.
func (a *Allocation) Tightness(t int) float64 {
	if !a.Complete(t) {
		panic(fmt.Sprintf("dag: tightness of incomplete task %d", t))
	}
	return a.tightness[t]
}

func (a *Allocation) tighter(z, t int) bool {
	tz, tt := a.tightness[z], a.tightness[t]
	if tz != tt {
		return tz > tt
	}
	return z < t
}

// EstimatedCompTime is equation (5) per node: nominal time plus the
// period-scaled waiting behind tighter tasks' nodes on the same machine.
func (a *Allocation) EstimatedCompTime(t, i int) float64 {
	if !a.Complete(t) {
		panic(fmt.Sprintf("dag: estimated time of incomplete task %d", t))
	}
	task := &a.sys.Tasks[t]
	m := a.machineOf[t][i]
	wait := 0.0
	for _, ref := range a.perMachine[m] {
		if ref.t == t || !a.Complete(ref.t) || !a.tighter(ref.t, t) {
			continue
		}
		z := &a.sys.Tasks[ref.t]
		wait += z.Nodes[ref.i].Work(m) / z.Period
	}
	return task.Nodes[i].NominalTime[m] + task.Period*wait
}

// EstimatedTranTime is equation (6) per edge.
func (a *Allocation) EstimatedTranTime(t, e int) float64 {
	if !a.Complete(t) {
		panic(fmt.Sprintf("dag: estimated time of incomplete task %d", t))
	}
	task := &a.sys.Tasks[t]
	edge := &task.Edges[e]
	j1, j2 := a.machineOf[t][edge.From], a.machineOf[t][edge.To]
	if j1 == j2 {
		return 0
	}
	wait := 0.0
	for _, ref := range a.perRoute[j1][j2] {
		if ref.t == t || !a.Complete(ref.t) || !a.tighter(ref.t, t) {
			continue
		}
		z := &a.sys.Tasks[ref.t]
		wait += a.sys.RouteTransferSeconds(z.Edges[ref.e].OutputKB, j1, j2) / z.Period
	}
	return a.sys.RouteTransferSeconds(edge.OutputKB, j1, j2) + task.Period*wait
}

// TaskLatency returns the estimated critical-path latency of complete task t
// using the sharing-aware node and edge times.
func (a *Allocation) TaskLatency(t int) float64 {
	return a.criticalPath(t,
		func(i int) float64 { return a.EstimatedCompTime(t, i) },
		func(e int) float64 { return a.EstimatedTranTime(t, e) })
}

// CheckTask verifies the generalized equation (1): every node computation and
// every edge transfer within the period, and the estimated critical path
// within Lmax. It returns a descriptive error or nil.
func (a *Allocation) CheckTask(t int) error {
	task := &a.sys.Tasks[t]
	for i := range task.Nodes {
		if tc := a.EstimatedCompTime(t, i); tc > task.Period*(1+utilEps) {
			return fmt.Errorf("task %d node %d computation %.4gs exceeds period %.4gs", t, i, tc, task.Period)
		}
	}
	for e := range task.Edges {
		if tt := a.EstimatedTranTime(t, e); tt > task.Period*(1+utilEps) {
			return fmt.Errorf("task %d edge %d transfer %.4gs exceeds period %.4gs", t, e, tt, task.Period)
		}
	}
	if lat := a.TaskLatency(t); lat > task.MaxLatency*(1+utilEps) {
		return fmt.Errorf("task %d latency %.4gs exceeds Lmax %.4gs", t, lat, task.MaxLatency)
	}
	return nil
}

// Stage1Feasible mirrors the string analysis: all utilizations at most one.
func (a *Allocation) Stage1Feasible() bool {
	for j := 0; j < a.sys.Machines; j++ {
		if a.machineUtil[j] > 1+utilEps {
			return false
		}
		for j2 := 0; j2 < a.sys.Machines; j2++ {
			if j != j2 && a.routeUtil[j][j2] > 1+utilEps {
				return false
			}
		}
	}
	return true
}

// TwoStageFeasible runs both stages over all complete tasks.
func (a *Allocation) TwoStageFeasible() bool {
	if !a.Stage1Feasible() {
		return false
	}
	for t := range a.sys.Tasks {
		if a.Complete(t) && a.CheckTask(t) != nil {
			return false
		}
	}
	return true
}

// Slackness is equation (7) over the DAG system's resources.
func (a *Allocation) Slackness() float64 {
	min := 1.0
	for j := 0; j < a.sys.Machines; j++ {
		if s := 1 - a.machineUtil[j]; s < min {
			min = s
		}
		for j2 := 0; j2 < a.sys.Machines; j2++ {
			if j != j2 {
				if s := 1 - a.routeUtil[j][j2]; s < min {
					min = s
				}
			}
		}
	}
	return min
}

// Worth sums the worth of complete tasks.
func (a *Allocation) Worth() float64 {
	w := 0.0
	for t := range a.sys.Tasks {
		if a.Complete(t) {
			w += a.sys.Tasks[t].Worth
		}
	}
	return w
}
