package feasibility

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
)

// naiveScan is the IMR's candidate selection as it ran before PlacementScan:
// every allowed machine is priced through MachineUtilizationIf and
// RouteUtilizationIf, masks first, no bound. It is the oracle PlacementScan is
// held to; nb < 0 is the first-application loop, which had no route term.
func naiveScan(a *Allocation, k, i, nb int, machineOK func(j int) bool, routeOK func(j1, j2 int) bool) int {
	maxf := func(x, y float64) float64 {
		if x > y {
			return x
		}
		return y
	}
	bestJ, bestVal := -1, 0.0
	for j, m := 0, a.System().Machines; j < m; j++ {
		if machineOK != nil && !machineOK(j) {
			continue
		}
		v := a.MachineUtilizationIf(j, k, i)
		if nb >= 0 {
			nbJ := a.Machine(k, nb)
			from, to, producer := nbJ, j, nb
			if nb > i {
				from, to, producer = j, nbJ, i
			}
			if from != to && routeOK != nil && !routeOK(from, to) {
				continue
			}
			v = maxf(v, a.RouteUtilizationIf(from, to, k, producer))
		}
		if bestJ < 0 || v < bestVal {
			bestJ, bestVal = j, v
		}
	}
	return bestJ
}

// quantize snaps the system's floats to a coarse grid, so that equal machine
// and route terms — the cases the bound's >= and the tie-break decide — are
// the rule rather than a measure-zero accident of randomSystem's draws.
func quantize(sys *model.System) {
	for j1 := range sys.Bandwidth {
		for j2 := range sys.Bandwidth[j1] {
			if j1 != j2 {
				sys.Bandwidth[j1][j2] = 1 + math.Floor(sys.Bandwidth[j1][j2]/4)
			}
		}
	}
	for k := range sys.Strings {
		s := &sys.Strings[k]
		s.Period = 32
		for i := range s.Apps {
			app := &s.Apps[i]
			app.OutputKB = 500 * (1 + math.Floor(app.OutputKB/40))
			for j := range app.NominalTime {
				app.NominalTime[j] = 2 * (1 + math.Floor(app.NominalTime[j]/4))
				app.NominalUtil[j] = 1
			}
		}
	}
}

// randomMasks draws a machine and a route mask: nil, or a fixed random subset
// of the given density (0 masks everything).
func randomMasks(rng *rand.Rand, m int) (func(j int) bool, func(j1, j2 int) bool) {
	densities := []float64{1, 0.9, 0.5, 0}
	var machineOK func(j int) bool
	var routeOK func(j1, j2 int) bool
	if d := densities[rng.Intn(len(densities))]; d < 1 {
		ok := make([]bool, m)
		for j := range ok {
			ok[j] = rng.Float64() < d
		}
		machineOK = func(j int) bool { return ok[j] }
	}
	if d := densities[rng.Intn(len(densities))]; d < 1 {
		ok := make([]bool, m*m)
		for c := range ok {
			ok[c] = rng.Float64() < d
		}
		routeOK = func(j1, j2 int) bool { return ok[j1*m+j2] }
	}
	return machineOK, routeOK
}

// walkString places string k the way the IMR does — a first application, then
// the contiguous region grown one application at a time to the left or the
// right, here in random order — and holds every scan to the oracle. It stops,
// as the IMR does, at the first scan the masks leave without a machine, and
// reports how many scans it compared.
func walkString(t *testing.T, label string, rng *rand.Rand, a *Allocation, k int, machineOK func(j int) bool, routeOK func(j1, j2 int) bool) int {
	t.Helper()
	n := len(a.sys.Strings[k].Apps)
	scans := 0
	scan := func(i, nb int) bool {
		got, want := a.PlacementScan(k, i, nb, machineOK, routeOK), naiveScan(a, k, i, nb, machineOK, routeOK)
		scans++
		if got != want {
			t.Fatalf("%s: string %d application %d (neighbour %d): PlacementScan chose machine %d, the naive scan %d",
				label, k, i, nb, got, want)
		}
		if got < 0 {
			return false
		}
		a.Assign(k, i, got)
		return true
	}
	first := rng.Intn(n)
	if !scan(first, Unassigned) {
		return scans
	}
	for iLeft, iRight := first, first; iRight-iLeft+1 < n; {
		if iLeft == 0 || (iRight < n-1 && rng.Intn(2) == 0) {
			if !scan(iRight+1, iRight) {
				return scans
			}
			iRight++
		} else {
			if !scan(iLeft-1, iLeft) {
				return scans
			}
			iLeft--
		}
	}
	return scans
}

// TestPlacementScanMatchesNaive holds the bounded scan to the naive one on
// keyed-random ships of every size the repository runs (a single machine, a
// pair, the paper's 12, the fleet's 128): over partial allocations, first
// applications and both neighbour directions, random machine and route masks
// down to all-masked (-1), continuous and tie-heavy floats, and again after a
// fully unassigned string's catalog floats were edited in place, the way a
// service rescale does between UnassignString and the re-placement.
func TestPlacementScanMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, m := range []int{1, 2, 12, 128} {
		scans, refused := 0, 0
		for trial := 0; trial < 24; trial++ {
			sys := randomSystem(rng, m, 10, 6)
			label := "continuous"
			if trial%2 == 1 {
				quantize(sys)
				label = "quantized"
			}
			// Routes as loaded as machines, so the route term decides often.
			heatUp(sys, 1, 30)
			a := New(sys)
			// A partial allocation: most strings placed at random, some of
			// them only in part.
			for k := 1; k < len(sys.Strings); k++ {
				for i := range sys.Strings[k].Apps {
					if rng.Intn(5) > 0 {
						a.Assign(k, i, rng.Intn(m))
					}
				}
			}
			for round := 0; round < 6; round++ {
				machineOK, routeOK := randomMasks(rng, m)
				if round >= 3 {
					// The rescale pattern: the string is out of every
					// roster while its floats move.
					s := &sys.Strings[0]
					scaleDemand(s, 0.5+rng.Float64())
					s.Period *= 0.5 + rng.Float64()
				}
				n := walkString(t, label, rng, a, 0, machineOK, routeOK)
				scans += n
				if !a.Complete(0) {
					refused++
				}
				a.UnassignString(0)
			}
		}
		if scans < 200 || refused < 10 {
			t.Errorf("M=%d: compared %d scans and saw %d placements refused by masks; want at least 200 and 10", m, scans, refused)
		}
	}
}

// pinSystem is the three-machine, one-string ship of the hand-pinned cases:
// application 0 sits on machine 2 and application 1 is scanned for with it as
// the neighbour, so machines 0 and 1 pay a route term (2 -> j, 1 000 KB every
// 10 s: a demand of 0.8 Mb/s) and machine 2 pays none. time[j] is application
// 1's nominal time on machine j at utilization 1; bw[j] the bandwidth 2 -> j.
func pinSystem(time [3]float64, bw [2]float64) *Allocation {
	sys := model.NewUniformSystem(3, 1)
	sys.Bandwidth[2][0], sys.Bandwidth[2][1] = bw[0], bw[1]
	sys.AddString(model.AppString{Worth: 1, Period: 10, MaxLatency: 100, Apps: []model.Application{
		{NominalTime: []float64{1, 1, 1}, NominalUtil: []float64{1, 1, 1}, OutputKB: 1000},
		{NominalTime: time[:], NominalUtil: []float64{1, 1, 1}, OutputKB: 1},
	}})
	a := New(sys)
	a.Assign(0, 0, 2)
	return a
}

// The three cases the bound's exactness argument rests on, each with its
// premise read back through the ...UtilizationIf pair before the scan runs.
func TestPlacementScanPinnedCases(t *testing.T) {
	terms := func(a *Allocation, j int) (mu, ru float64) {
		return a.MachineUtilizationIf(j, 0, 1), a.RouteUtilizationIf(2, j, 0, 0)
	}
	check := func(name string, a *Allocation, want int) {
		t.Helper()
		if got, naive := a.PlacementScan(0, 1, 0, nil, nil), naiveScan(a, 0, 1, 0, nil, nil); got != want || naive != want {
			t.Errorf("%s: PlacementScan chose machine %d, the naive scan %d, want %d", name, got, naive, want)
		}
	}

	// Equal max on two machines, machine 0's set by its route (0.8/2 = 0.4)
	// and machine 1's by its own term (4/10 = 0.4): the lower index.
	a := pinSystem([3]float64{1, 4, 9}, [2]float64{2, 8})
	mu0, ru0 := terms(a, 0)
	mu1, ru1 := terms(a, 1)
	if !(mu0 < ru0 && ru0 == mu1 && ru1 < mu1) {
		t.Fatalf("equal-max premise broken: machine 0 (%v, %v), machine 1 (%v, %v)", mu0, ru0, mu1, ru1)
	}
	check("equal max", a, 0)

	// A later machine whose machine term equals the incumbent is not chosen,
	// whatever its route term — machine 2 has none at all (its 0.5 is
	// application 0's 0.1 plus 4/10).
	a = pinSystem([3]float64{5, 9, 4}, [2]float64{8, 8})
	mu0, ru0 = terms(a, 0)
	mu2, ru2 := terms(a, 2)
	if !(ru0 < mu0 && mu2 == mu0 && ru2 == 0) {
		t.Fatalf("equal-machine-term premise broken: machine 0 (%v, %v), machine 2 (%v, %v)", mu0, ru0, mu2, ru2)
	}
	check("machine term equal to the incumbent", a, 0)

	// A route term lifts an early machine above a later one: machine 0 has
	// the smallest machine term but a starved route, machine 1 survives the
	// bound (0.5 < 0.8) and wins.
	a = pinSystem([3]float64{1, 5, 9}, [2]float64{1, 8})
	mu0, ru0 = terms(a, 0)
	mu1, ru1 = terms(a, 1)
	if !(mu0 < mu1 && mu1 < ru0 && ru1 < mu1) {
		t.Fatalf("lifted-by-route premise broken: machine 0 (%v, %v), machine 1 (%v, %v)", mu0, ru0, mu1, ru1)
	}
	check("route term lifts an early machine", a, 1)
}

// The scan allocates nothing, with masks or without.
func TestPlacementScanZeroAlloc(t *testing.T) {
	a := pinSystem([3]float64{1, 5, 9}, [2]float64{1, 8})
	machineOK := func(j int) bool { return j != 1 }
	routeOK := func(j1, j2 int) bool { return j2 != 0 }
	for name, scan := range map[string]func(){
		"first application": func() { a.PlacementScan(0, 1, Unassigned, nil, nil) },
		"unmasked":          func() { a.PlacementScan(0, 1, 0, nil, nil) },
		"masked":            func() { a.PlacementScan(0, 1, 0, machineOK, routeOK) },
	} {
		if allocs := testing.AllocsPerRun(100, scan); allocs != 0 {
			t.Errorf("%s scan allocated %.1f times, want 0", name, allocs)
		}
	}
}
