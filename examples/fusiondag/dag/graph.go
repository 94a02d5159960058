// Package dag extends the TSCE model from linear application strings to
// directed acyclic graphs of applications — the generalization the paper
// flags as future work ("The final ARMS program may include DAGs of
// applications", Section 2, footnote 2).
//
// A Task is a periodic DAG: nodes are applications (machine-dependent
// nominal execution time and nominal CPU utilization, as in the string
// model); edges are data transfers with explicit sizes. Each node executes
// once per period; a data set's end-to-end latency is the completion time of
// the critical path through the graph; the throughput constraint bounds each
// node's computation time and each edge's transfer time by the period.
//
// The analysis generalizes Sections 3-4 directly:
//
//   - machine and route utilizations sum the same per-node and per-edge
//     demand terms (equations (2)-(3), with one route term per edge);
//   - relative tightness divides the no-sharing critical-path length by the
//     latency bound (equation (4) on the critical path);
//   - the sharing-aware time estimates (equations (5)-(6)) are unchanged per
//     node and per edge — only the latency aggregation differs;
//   - a linear chain reduces exactly to the string model, and a property
//     test pins the two analyses to each other on random chains.
package dag

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// Node is one application in a DAG task. Fields follow model.Application.
type Node struct {
	NominalTime []float64 `json:"nominalTime"`
	NominalUtil []float64 `json:"nominalUtil"`
}

// Work returns the CPU work t*u on machine j.
func (n *Node) Work(j int) float64 { return n.NominalTime[j] * n.NominalUtil[j] }

// Edge is a data transfer between two nodes of the same task.
type Edge struct {
	From     int     `json:"from"`
	To       int     `json:"to"`
	OutputKB float64 `json:"outputKB"`
}

// Task is a periodic DAG of applications with QoS constraints.
type Task struct {
	ID         int     `json:"id"`
	Worth      float64 `json:"worth"`
	Period     float64 `json:"period"`
	MaxLatency float64 `json:"maxLatency"`
	Nodes      []Node  `json:"nodes"`
	Edges      []Edge  `json:"edges"`
}

// System is a hardware suite (machines and routes, as in the string model)
// plus a set of DAG tasks considered for mapping.
type System struct {
	Machines  int         `json:"machines"`
	Bandwidth [][]float64 `json:"bandwidth"`
	Tasks     []Task      `json:"tasks"`
}

// AddTask appends t, assigns its ID, and returns its index.
func (sys *System) AddTask(t Task) int {
	t.ID = len(sys.Tasks)
	sys.Tasks = append(sys.Tasks, t)
	return t.ID
}

// RouteTransferSeconds mirrors model.System.RouteTransferSeconds.
func (sys *System) RouteTransferSeconds(kb float64, j1, j2 int) float64 {
	if j1 == j2 {
		return 0
	}
	return model.TransferSeconds(kb, sys.Bandwidth[j1][j2])
}

// RouteDemandUtil mirrors model.System.RouteDemandUtil.
func (sys *System) RouteDemandUtil(kb, period float64, j1, j2 int) float64 {
	if j1 == j2 {
		return 0
	}
	return 8 * kb / (1000 * period) / sys.Bandwidth[j1][j2]
}

// TotalWorth sums worth over all tasks.
func (sys *System) TotalWorth() float64 {
	w := 0.0
	for i := range sys.Tasks {
		w += sys.Tasks[i].Worth
	}
	return w
}

// Validate checks the hardware description, per-task structure, and
// acyclicity of every task graph.
func (sys *System) Validate() error {
	if sys.Machines <= 0 {
		return fmt.Errorf("dag: %d machines", sys.Machines)
	}
	if len(sys.Bandwidth) != sys.Machines {
		return fmt.Errorf("dag: bandwidth matrix has %d rows, want %d", len(sys.Bandwidth), sys.Machines)
	}
	for j1, row := range sys.Bandwidth {
		if len(row) != sys.Machines {
			return fmt.Errorf("dag: bandwidth row %d has %d entries", j1, len(row))
		}
		for j2, w := range row {
			if j1 != j2 && (w <= 0 || math.IsNaN(w) || math.IsInf(w, 0)) {
				return fmt.Errorf("dag: bandwidth[%d][%d] = %v", j1, j2, w)
			}
		}
	}
	for t := range sys.Tasks {
		task := &sys.Tasks[t]
		if len(task.Nodes) == 0 {
			return fmt.Errorf("dag: task %d has no nodes", t)
		}
		if task.Period <= 0 || task.MaxLatency <= 0 || task.Worth <= 0 {
			return fmt.Errorf("dag: task %d has non-positive period/latency/worth", t)
		}
		for i := range task.Nodes {
			n := &task.Nodes[i]
			if len(n.NominalTime) != sys.Machines || len(n.NominalUtil) != sys.Machines {
				return fmt.Errorf("dag: task %d node %d has wrong machine vectors", t, i)
			}
			for j := 0; j < sys.Machines; j++ {
				if n.NominalTime[j] <= 0 || math.IsNaN(n.NominalTime[j]) || math.IsInf(n.NominalTime[j], 0) {
					return fmt.Errorf("dag: task %d node %d time on machine %d = %v", t, i, j, n.NominalTime[j])
				}
				if u := n.NominalUtil[j]; u <= 0 || u > 1 || math.IsNaN(u) {
					return fmt.Errorf("dag: task %d node %d utilization on machine %d = %v", t, i, j, u)
				}
			}
		}
		seen := map[[2]int]bool{}
		for e := range task.Edges {
			edge := &task.Edges[e]
			if edge.From < 0 || edge.From >= len(task.Nodes) || edge.To < 0 || edge.To >= len(task.Nodes) {
				return fmt.Errorf("dag: task %d edge %d references missing node", t, e)
			}
			if edge.From == edge.To {
				return fmt.Errorf("dag: task %d edge %d is a self-loop", t, e)
			}
			key := [2]int{edge.From, edge.To}
			if seen[key] {
				return fmt.Errorf("dag: task %d has duplicate edge %d->%d", t, edge.From, edge.To)
			}
			seen[key] = true
			if edge.OutputKB < 0 || math.IsNaN(edge.OutputKB) || math.IsInf(edge.OutputKB, 0) {
				return fmt.Errorf("dag: task %d edge %d output %v KB", t, e, edge.OutputKB)
			}
		}
		if _, err := task.TopologicalOrder(); err != nil {
			return fmt.Errorf("dag: task %d: %w", t, err)
		}
	}
	return nil
}

// TopologicalOrder returns a topological ordering of the task's nodes, or an
// error if the graph has a cycle.
func (t *Task) TopologicalOrder() ([]int, error) {
	n := len(t.Nodes)
	indeg := make([]int, n)
	adj := make([][]int, n)
	for _, e := range t.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		indeg[e.To]++
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("graph has a cycle")
	}
	return order, nil
}

// FromString converts a linear application string into an equivalent chain
// task: node i is application i, and edge i -> i+1 carries O[i].
func FromString(s *model.AppString) Task {
	t := Task{ID: s.ID, Worth: s.Worth, Period: s.Period, MaxLatency: s.MaxLatency}
	t.Nodes = make([]Node, len(s.Apps))
	for i := range s.Apps {
		t.Nodes[i] = Node{
			NominalTime: append([]float64(nil), s.Apps[i].NominalTime...),
			NominalUtil: append([]float64(nil), s.Apps[i].NominalUtil...),
		}
		if i < len(s.Apps)-1 {
			t.Edges = append(t.Edges, Edge{From: i, To: i + 1, OutputKB: s.Apps[i].OutputKB})
		}
	}
	return t
}

// FromModelSystem converts a string-based system into the equivalent chain
// DAG system.
func FromModelSystem(src *model.System) *System {
	out := &System{Machines: src.Machines}
	out.Bandwidth = make([][]float64, len(src.Bandwidth))
	for i, row := range src.Bandwidth {
		out.Bandwidth[i] = append([]float64(nil), row...)
	}
	for k := range src.Strings {
		out.AddTask(FromString(&src.Strings[k]))
	}
	return out
}

// AvgWork returns the machine-averaged work of node i of task t (the IMR
// intensity measure).
func (sys *System) AvgWork(t, i int) float64 {
	node := &sys.Tasks[t].Nodes[i]
	sum := 0.0
	for j := 0; j < sys.Machines; j++ {
		sum += node.Work(j)
	}
	return sum / float64(sys.Machines)
}

// AvgInvBandwidth mirrors model.System.AvgInvBandwidth.
func (sys *System) AvgInvBandwidth() float64 {
	sum := 0.0
	for j1 := 0; j1 < sys.Machines; j1++ {
		for j2 := 0; j2 < sys.Machines; j2++ {
			if j1 != j2 {
				sum += 1 / sys.Bandwidth[j1][j2]
			}
		}
	}
	return sum / float64(sys.Machines*sys.Machines)
}

// AvgTightness is the allocation-independent tightness used for TF-style
// ranking: the machine-averaged critical-path length over the latency bound.
func (sys *System) AvgTightness(t int) float64 {
	task := &sys.Tasks[t]
	order, err := task.TopologicalOrder()
	if err != nil {
		return math.Inf(1)
	}
	avgT := make([]float64, len(task.Nodes))
	for i := range task.Nodes {
		sum := 0.0
		for j := 0; j < sys.Machines; j++ {
			sum += task.Nodes[i].NominalTime[j]
		}
		avgT[i] = sum / float64(sys.Machines)
	}
	invW := sys.AvgInvBandwidth()
	finish := make([]float64, len(task.Nodes))
	longest := 0.0
	for _, v := range order {
		f := finish[v] + avgT[v]
		finish[v] = f
		if f > longest {
			longest = f
		}
		for _, e := range task.Edges {
			if e.From != v {
				continue
			}
			arrive := f + 8*e.OutputKB/1000*invW
			if arrive > finish[e.To] {
				finish[e.To] = arrive
			}
		}
	}
	return longest / task.MaxLatency
}
