// Package pool implements the resource-pool generalization from the paper's
// Section 2 footnote 1: "In the final ARMS system, computational resources
// will be divided into pools; in this paper, we assume each pool consists of
// one machine." Here a pool is a named group of machines; the allocator
// decides at pool granularity and an internal dispatcher picks the concrete
// member machine — the two-level placement the full ARMS architecture
// anticipates. With singleton pools everything reduces exactly to the
// paper's flat model (a property test pins that equivalence).
package pool

import (
	"fmt"

	"repro/internal/feasibility"
	"repro/internal/heuristics"
	"repro/internal/model"
)

// Pool is a named group of machine indices.
type Pool struct {
	Name    string `json:"name"`
	Members []int  `json:"members"`
}

// Partition divides a machine suite into disjoint pools covering every
// machine.
type Partition struct {
	Pools []Pool `json:"pools"`
}

// Uniform returns a partition of machines into consecutive pools of the
// given size (the last pool absorbs any remainder). Size 1 is the paper's
// degenerate partition: one machine per pool.
func Uniform(machines, size int) (*Partition, error) {
	if size < 1 || size > machines {
		return nil, fmt.Errorf("pool: size %d for %d machines", size, machines)
	}
	p := &Partition{}
	for start := 0; start < machines; start += size {
		end := start + size
		if machines-end < size { // absorb remainder into the last pool
			end = machines
		}
		members := make([]int, 0, end-start)
		for j := start; j < end; j++ {
			members = append(members, j)
		}
		p.Pools = append(p.Pools, Pool{Name: fmt.Sprintf("pool-%d", len(p.Pools)), Members: members})
		if end == machines {
			break
		}
	}
	return p, nil
}

// Validate checks that the pools disjointly cover machines 0..n-1.
func (p *Partition) Validate(machines int) error {
	if len(p.Pools) == 0 {
		return fmt.Errorf("pool: empty partition")
	}
	seen := make([]bool, machines)
	count := 0
	for pi, pool := range p.Pools {
		if len(pool.Members) == 0 {
			return fmt.Errorf("pool: pool %d (%s) is empty", pi, pool.Name)
		}
		for _, j := range pool.Members {
			if j < 0 || j >= machines {
				return fmt.Errorf("pool: pool %d references machine %d of %d", pi, j, machines)
			}
			if seen[j] {
				return fmt.Errorf("pool: machine %d in two pools", j)
			}
			seen[j] = true
			count++
		}
	}
	if count != machines {
		return fmt.Errorf("pool: pools cover %d of %d machines", count, machines)
	}
	return nil
}

// allocator performs two-level placement: strings are assigned to pools, and
// the internal dispatcher picks the member machine that minimizes the IMR
// candidate cost at that moment. It wraps a flat feasibility.Allocation, so
// the two-stage analysis, slackness, and the simulator all apply unchanged.
type allocator struct {
	part  *Partition
	alloc *feasibility.Allocation
}

// dispatchCost is the IMR candidate cost of placing application i of string
// k on machine j: the max of the resulting machine utilization and the
// utilizations of routes to already-placed neighbors.
func (a *allocator) dispatchCost(k, i, j int) float64 {
	sys := a.alloc.System()
	val := a.alloc.MachineUtilizationIf(j, k, i)
	if i > 0 {
		if prev := a.alloc.Machine(k, i-1); prev != feasibility.Unassigned {
			if u := a.alloc.RouteUtilizationIf(prev, j, k, i-1); u > val {
				val = u
			}
		}
	}
	if i < len(sys.Strings[k].Apps)-1 {
		if next := a.alloc.Machine(k, i+1); next != feasibility.Unassigned {
			if u := a.alloc.RouteUtilizationIf(j, next, k, i); u > val {
				val = u
			}
		}
	}
	return val
}

// dispatch is the dispatcher's choice: the member of the pool with the
// smallest dispatch cost for application i of string k, lowest index on ties.
func (a *allocator) dispatch(k, i, poolIdx int) int {
	bestJ, bestVal := -1, 0.0
	for _, j := range a.part.Pools[poolIdx].Members {
		val := a.dispatchCost(k, i, j)
		if bestJ < 0 || val < bestVal {
			bestJ, bestVal = j, val
		}
	}
	return bestJ
}

// mapString is the pool-granular IMR: the walk is the flat IMR's own
// (heuristics.MapStringWith — same most-intensive-first contiguous-region
// order), and the chooser picks a pool by minimum mean member cost (ties to
// the lower pool index), then lets the dispatcher choose the machine.
func (a *allocator) mapString(k int) {
	heuristics.MapStringWith(a.alloc, k, func(i, _ int) int {
		bestPool, bestVal := 0, -1.0
		for pi := range a.part.Pools {
			v := a.poolCost(k, i, pi)
			if bestVal < 0 || v < bestVal {
				bestPool, bestVal = pi, v
			}
		}
		return a.dispatch(k, i, bestPool)
	})
}

// poolCost is the pool-level placement cost: the mean dispatch cost over the
// pool's members. The mean models the information hiding of a pool boundary —
// the pool-level allocator sees an aggregate, not each member — which is what
// makes multi-machine pools genuinely coarser than flat allocation. For
// singleton pools the mean is the single member's exact dispatch cost, so the
// pooled IMR coincides with the flat IMR (same costs, same machine-index tie
// breaking); a test pins that equivalence.
func (a *allocator) poolCost(k, i, pi int) float64 {
	pool := a.part.Pools[pi]
	sum := 0.0
	for _, j := range pool.Members {
		sum += a.dispatchCost(k, i, j)
	}
	return sum / float64(len(pool.Members))
}

// MapSequencePooled maps strings in order with the paper's stop-on-failure
// semantics, at pool granularity: heuristics.MapSequenceWith (so the order
// must be a permutation of all string indices, or it panics as MapSequence
// does) placing each string with the pool-granular IMR. The partition must
// disjointly cover the system's machines.
func MapSequencePooled(sys *model.System, part *Partition, order []int) (*heuristics.Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := part.Validate(sys.Machines); err != nil {
		return nil, err
	}
	return heuristics.MapSequenceWith(sys, order, func(alloc *feasibility.Allocation, k int) {
		(&allocator{part: part, alloc: alloc}).mapString(k)
	}), nil
}
