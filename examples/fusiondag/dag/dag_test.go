package dag

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/feasibility"
	"repro/internal/genitor"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/workload"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// diamond builds the canonical fusion DAG:
//
//	    1
//	  /   \
//	0       3
//	  \   /
//	    2
func diamondSystem() *System {
	sys := &System{Machines: 3, Bandwidth: model.UniformBandwidth(3, 1)} // 1 Mb/s
	nodes := make([]Node, 4)
	times := []float64{2, 3, 5, 1}
	for i := range nodes {
		nodes[i] = Node{NominalTime: make([]float64, 3), NominalUtil: make([]float64, 3)}
		for j := 0; j < 3; j++ {
			nodes[i].NominalTime[j] = times[i]
			nodes[i].NominalUtil[j] = 0.5
		}
	}
	sys.AddTask(Task{
		Worth: 10, Period: 20, MaxLatency: 50,
		Nodes: nodes,
		Edges: []Edge{
			{From: 0, To: 1, OutputKB: 100}, // 0.8 s at 1 Mb/s
			{From: 0, To: 2, OutputKB: 50},  // 0.4 s
			{From: 1, To: 3, OutputKB: 100},
			{From: 2, To: 3, OutputKB: 50},
		},
	})
	return sys
}

func TestValidateAndTopo(t *testing.T) {
	sys := diamondSystem()
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	order, err := sys.Tasks[0].TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, 4)
	for idx, v := range order {
		pos[v] = idx
	}
	for _, e := range sys.Tasks[0].Edges {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("order %v violates edge %d->%d", order, e.From, e.To)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := []func(*System){
		func(s *System) { s.Machines = 0 },
		func(s *System) { s.Bandwidth[0][1] = -1 },
		func(s *System) { s.Tasks[0].Nodes = nil },
		func(s *System) { s.Tasks[0].Period = 0 },
		func(s *System) { s.Tasks[0].Worth = 0 },
		func(s *System) { s.Tasks[0].Nodes[0].NominalTime[1] = 0 },
		func(s *System) { s.Tasks[0].Nodes[0].NominalUtil[1] = 2 },
		func(s *System) { s.Tasks[0].Edges[0].To = 9 },
		func(s *System) { s.Tasks[0].Edges[0].To = s.Tasks[0].Edges[0].From },
		func(s *System) { s.Tasks[0].Edges = append(s.Tasks[0].Edges, Edge{From: 0, To: 1}) },
		func(s *System) { s.Tasks[0].Edges[3] = Edge{From: 3, To: 0} }, // cycle 0->1->3->0
		func(s *System) { s.Tasks[0].Edges[0].OutputKB = -1 },
	}
	for i, mutate := range mutations {
		sys := diamondSystem()
		mutate(sys)
		if err := sys.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestDiamondAnalysis hand-checks utilizations, tightness and latency on a
// co-located and a spread mapping.
func TestDiamondAnalysis(t *testing.T) {
	sys := diamondSystem()
	a := NewAllocation(sys)
	// All nodes on machine 0: no transfers, critical path = 2+5+1 = 8 via
	// node 2 (5 > 3).
	for i := 0; i < 4; i++ {
		a.Assign(0, i, 0)
	}
	// Machine utilization: (2+3+5+1)*0.5/20 = 0.275.
	if got := a.MachineUtilization(0); !approx(got, 0.275, 1e-12) {
		t.Errorf("U = %v, want 0.275", got)
	}
	if got := a.Tightness(0); !approx(got, 8.0/50, 1e-12) {
		t.Errorf("tightness = %v, want 0.16", got)
	}
	if got := a.TaskLatency(0); !approx(got, 8, 1e-12) {
		t.Errorf("latency = %v, want 8", got)
	}
	if err := a.CheckTask(0); err != nil {
		t.Errorf("feasible mapping rejected: %v", err)
	}
	if !a.TwoStageFeasible() {
		t.Error("two-stage should pass")
	}
	if a.Worth() != 10 || a.Slackness() >= 1 {
		t.Errorf("worth %v slackness %v", a.Worth(), a.Slackness())
	}

	// Spread: 0 on m0, 1 on m1, 2 on m2, 3 on m0. Critical path:
	// 2 + max(0.8+3+0.8, 0.4+5+0.4) + 1 = 2 + 5.8 + 1 = 8.8.
	b := NewAllocation(sys)
	b.Assign(0, 0, 0)
	b.Assign(0, 1, 1)
	b.Assign(0, 2, 2)
	b.Assign(0, 3, 0)
	if got := b.TaskLatency(0); !approx(got, 8.8, 1e-12) {
		t.Errorf("spread latency = %v, want 8.8", got)
	}
	// Route 0->1 carries 100 KB per 20 s over 1 Mb/s: util 0.04.
	if got := b.RouteUtilization(0, 1); !approx(got, 0.04, 1e-12) {
		t.Errorf("route util = %v, want 0.04", got)
	}
	// Unassign restores empty state.
	b.UnassignTask(0)
	if b.MachineUtilization(0) > 1e-12 || b.RouteUtilization(0, 1) > 1e-12 || b.Complete(0) {
		t.Error("unassign left residue")
	}
}

// TestChainEquivalence is the anchor property: a randomly generated string
// system converted to chain tasks must produce identical utilizations,
// tightness, per-element time estimates, latency, and two-stage verdicts
// under the DAG analysis and the string analysis, for random assignments.
func TestChainEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		msys := randomModelSystem(rng, 2+rng.Intn(3), 1+rng.Intn(5))
		dsys := FromModelSystem(msys)
		if err := dsys.Validate(); err != nil {
			t.Fatal(err)
		}
		ma := feasibility.New(msys)
		da := NewAllocation(dsys)
		for k := range msys.Strings {
			for i := range msys.Strings[k].Apps {
				j := rng.Intn(msys.Machines)
				ma.Assign(k, i, j)
				da.Assign(k, i, j)
			}
		}
		for j := 0; j < msys.Machines; j++ {
			if !approx(ma.MachineUtilization(j), da.MachineUtilization(j), 1e-9) {
				t.Fatalf("trial %d: machine %d utilization differs", trial, j)
			}
			for j2 := 0; j2 < msys.Machines; j2++ {
				if !approx(ma.RouteUtilization(j, j2), da.RouteUtilization(j, j2), 1e-9) {
					t.Fatalf("trial %d: route (%d,%d) differs", trial, j, j2)
				}
			}
		}
		for k := range msys.Strings {
			if !approx(ma.Tightness(k), da.Tightness(k), 1e-9) {
				t.Fatalf("trial %d: tightness of string %d: %v vs %v", trial, k, ma.Tightness(k), da.Tightness(k))
			}
			n := len(msys.Strings[k].Apps)
			for i := 0; i < n; i++ {
				if !approx(ma.EstimatedCompTime(k, i), da.EstimatedCompTime(k, i), 1e-9) {
					t.Fatalf("trial %d: comp time (%d,%d) differs", trial, k, i)
				}
				if i < n-1 {
					if !approx(ma.EstimatedTranTime(k, i), da.EstimatedTranTime(k, i), 1e-9) {
						t.Fatalf("trial %d: tran time (%d,%d) differs", trial, k, i)
					}
				}
			}
			if !approx(ma.StringLatency(k), da.TaskLatency(k), 1e-9) {
				t.Fatalf("trial %d: latency of string %d: %v vs %v", trial, k, ma.StringLatency(k), da.TaskLatency(k))
			}
		}
		if ma.TwoStageFeasible() != da.TwoStageFeasible() {
			t.Fatalf("trial %d: feasibility verdicts differ", trial)
		}
		if !approx(ma.Slackness(), da.Slackness(), 1e-9) {
			t.Fatalf("trial %d: slackness differs", trial)
		}
	}
}

// TestChainHeuristicEquivalence: on chain systems the DAG MWF recovers the
// same worth as the string MWF (the IMR visit order may differ, but on these
// comfortable instances both map the same set).
func TestChainHeuristicEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		msys := randomModelSystem(rng, 3, 6)
		dsys := FromModelSystem(msys)
		mr := heuristics.MWF(msys)
		dr := MWF(dsys)
		if mr.NumMapped == len(msys.Strings) && dr.NumMapped != len(dsys.Tasks) {
			t.Fatalf("trial %d: string MWF mapped all, DAG MWF mapped %d/%d",
				trial, dr.NumMapped, len(dsys.Tasks))
		}
	}
}

func TestMapTaskIMRAssignsAllAndHandlesDisconnected(t *testing.T) {
	sys := diamondSystem()
	// Add a disconnected extra node pair to the task.
	task := &sys.Tasks[0]
	for i := 0; i < 2; i++ {
		task.Nodes = append(task.Nodes, Node{
			NominalTime: []float64{1, 1, 1},
			NominalUtil: []float64{0.3, 0.3, 0.3},
		})
	}
	task.Edges = append(task.Edges, Edge{From: 4, To: 5, OutputKB: 10})
	if err := sys.Validate(); err != nil {
		t.Fatal(err)
	}
	a := NewAllocation(sys)
	MapTaskIMR(a, 0)
	if !a.Complete(0) {
		t.Fatal("IMR left nodes unassigned")
	}
	if !a.TwoStageFeasible() {
		t.Error("mapping infeasible on an easy task")
	}
}

func TestDAGHeuristics(t *testing.T) {
	sys := fusionScenario(4, 6, 3)
	cfg := genitor.Config{PopulationSize: 20, Bias: 1.6, MaxIterations: 60, StallLimit: 40, Seed: 2}
	mwf := MWF(sys)
	tf := TF(sys)
	psg := PSG(sys, cfg, false)
	sp := PSG(sys, cfg, true)
	for _, r := range []*Result{mwf, tf, psg, sp} {
		if !r.Alloc.TwoStageFeasible() {
			t.Errorf("%s: infeasible result", r.Name)
		}
		if r.Worth < 0 || r.NumMapped > len(sys.Tasks) {
			t.Errorf("%s: nonsense result %+v", r.Name, r)
		}
		if !genitor.IsPermutation(r.Order, len(sys.Tasks)) {
			t.Errorf("%s: order is not a permutation", r.Name)
		}
	}
	// Elitism: seeded PSG dominates both seeds.
	if mwf.Worth > sp.Worth+1e-9 || tf.Worth > sp.Worth+1e-9 {
		t.Errorf("SeededPSG %v below a seed (MWF %v, TF %v)", sp.Worth, mwf.Worth, tf.Worth)
	}
}

func TestAllocationPanics(t *testing.T) {
	sys := diamondSystem()
	a := NewAllocation(sys)
	a.Assign(0, 0, 0)
	mustPanic(t, func() { a.Assign(0, 0, 1) })
	mustPanic(t, func() { a.Assign(0, 1, 9) })
	mustPanic(t, func() { a.Unassign(0, 1) })
	mustPanic(t, func() { a.Tightness(0) })
	mustPanic(t, func() { a.EstimatedCompTime(0, 0) })
	mustPanic(t, func() { a.EstimatedTranTime(0, 0) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// fusionScenario builds nTasks random fusion DAGs (two chains joining into a
// sink) on m machines.
func fusionScenario(m, nTasks int, branchLen int) *System {
	rng := rand.New(rand.NewSource(int64(m*1000 + nTasks)))
	sys := &System{Machines: m, Bandwidth: model.UniformBandwidth(m, 5)}
	for t := 0; t < nTasks; t++ {
		n := 2*branchLen + 1
		nodes := make([]Node, n)
		for i := range nodes {
			nodes[i] = Node{NominalTime: make([]float64, m), NominalUtil: make([]float64, m)}
			for j := 0; j < m; j++ {
				nodes[i].NominalTime[j] = 1 + 3*rng.Float64()
				nodes[i].NominalUtil[j] = 0.2 + 0.3*rng.Float64()
			}
		}
		var edges []Edge
		for b := 0; b < 2; b++ {
			start := b * branchLen
			for i := 0; i < branchLen-1; i++ {
				edges = append(edges, Edge{From: start + i, To: start + i + 1, OutputKB: 20 + 50*rng.Float64()})
			}
			edges = append(edges, Edge{From: start + branchLen - 1, To: n - 1, OutputKB: 20 + 50*rng.Float64()})
		}
		sys.AddTask(Task{
			Worth:      []float64{1, 10, 100}[rng.Intn(3)],
			Period:     40 + 20*rng.Float64(),
			MaxLatency: 80 + 60*rng.Float64(),
			Nodes:      nodes,
			Edges:      edges,
		})
	}
	return sys
}

func randomModelSystem(rng *rand.Rand, machines, strings int) *model.System {
	sys := model.NewUniformSystem(machines, 0)
	for j1 := 0; j1 < machines; j1++ {
		for j2 := 0; j2 < machines; j2++ {
			if j1 != j2 {
				sys.Bandwidth[j1][j2] = 1 + 9*rng.Float64()
			}
		}
	}
	for k := 0; k < strings; k++ {
		n := 1 + rng.Intn(4)
		apps := make([]model.Application, n)
		for i := range apps {
			apps[i] = model.Application{
				NominalTime: make([]float64, machines),
				NominalUtil: make([]float64, machines),
				OutputKB:    10 + 90*rng.Float64(),
			}
			for j := 0; j < machines; j++ {
				apps[i].NominalTime[j] = 1 + 5*rng.Float64()
				apps[i].NominalUtil[j] = 0.1 + 0.5*rng.Float64()
			}
		}
		sys.AddString(model.AppString{
			Worth:      []float64{1, 10, 100}[rng.Intn(3)],
			Period:     25 + 25*rng.Float64(),
			MaxLatency: 40 + 80*rng.Float64(),
			Apps:       apps,
		})
	}
	return sys
}

// BenchmarkDAGMapping times the generalized IMR sequence on fusion DAGs.
func BenchmarkDAGMapping(b *testing.B) {
	msys := workload.MustGenerate(workload.ScenarioConfig(workload.LightlyLoaded), 1)
	dsys := FromModelSystem(msys)
	order := MWFOrder(dsys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := MapSequence(dsys, order)
		if r.NumMapped == 0 {
			b.Fatal("nothing mapped")
		}
	}
}
