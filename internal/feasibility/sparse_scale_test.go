// Fleet-scale smoke: the CI gate that keeps the allocation core sparse. It
// drives an M=2048 admit/remove/rescale loop through the tracked-analyzer
// path (CI runs it under -race) and asserts a runtime.MemStats heap ceiling
// on the allocation's resident footprint — a dense M×M route representation
// costs ~168 MB per allocation at this size and cannot fit under it.
package feasibility_test

import (
	"runtime"
	"testing"

	"repro/internal/feasibility"
	"repro/internal/rng"
)

// heapAllocNow returns the live heap after a forced collection, so two
// readings bracket a data structure's resident footprint.
func heapAllocNow() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func TestFleetScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale smoke skipped in -short mode")
	}
	const (
		m        = 2048
		rounds   = 300
		heapCeil = 32 << 20 // bytes; the dense route state alone was ~5x this
	)
	sys := fleetSystem(t, m)
	before := heapAllocNow()

	a := feasibility.New(sys)
	da := feasibility.Track(a)
	defer da.Close()
	r := rng.NewRand(sparseBenchSeed, rng.SubsystemSparse, 2)

	admitted := 0
	for round := 0; round < rounds; round++ {
		k := r.Intn(len(sys.Strings))
		switch r.Intn(3) {
		case 0: // admit or re-place, keeping only feasible placements
			a.UnassignString(k)
			a.AssignString(k, stringMachines(sys, k))
			if da.FeasibleAfterDelta() {
				da.Commit()
				admitted++
			} else {
				da.Undo()
			}
		case 1: // remove
			a.UnassignString(k)
			da.Commit()
		case 2: // rescale the string's QoS in place and remap it
			machines := a.StringMachines(k)
			a.UnassignString(k)
			f := 0.9 + 0.2*r.Float64()
			sys.Strings[k].Period *= f
			sys.Strings[k].MaxLatency *= f
			for i, j := range machines {
				if j != feasibility.Unassigned {
					a.Assign(k, i, j)
				}
			}
			da.Commit()
		}
		if round%50 == 0 {
			if got, want := da.FeasibleAfterDelta(), a.TwoStageFeasible(); got != want {
				t.Fatalf("round %d: delta feasibility %v, full analysis %v", round, got, want)
			}
		}
	}
	if admitted == 0 {
		t.Fatal("no admission succeeded; the loop exercised nothing")
	}
	cp := a.Clone()
	if got, want := feasibility.StateDigest(cp), feasibility.StateDigest(a); got != want {
		t.Fatalf("clone digest %s, original %s", got, want)
	}
	after := heapAllocNow()
	var footprint uint64
	if after > before {
		footprint = after - before
	}
	routes := 0
	a.ActiveRoutes(func(int, int, float64) { routes++ })
	t.Logf("fleet allocation footprint: %.1f MB over %d machines, %d active routes, %d admissions",
		float64(footprint)/(1<<20), m, routes, admitted)
	if footprint > heapCeil {
		t.Fatalf("allocation footprint %d bytes exceeds the %d-byte ceiling: route state is no longer sparse",
			footprint, heapCeil)
	}
}
