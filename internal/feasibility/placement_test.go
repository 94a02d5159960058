package feasibility

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/telemetry"
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

// termsComputed is what a scan that chose winner must have added to
// heuristics.imr.machines_read: every machine's term in index order (a nil
// row), and along a scan order one past the first machine whose own term
// t·u/P exceeds the winner's value — the first the scan stops at — or every
// machine when none does or the masks left no winner.
func termsComputed(a *Allocation, k, i, nb int, row []int32, winner int) int64 {
	m := a.System().Machines
	if row == nil || winner < 0 {
		return int64(m)
	}
	s := &a.System().Strings[k]
	app := &s.Apps[i]
	v := a.MachineUtilizationIf(winner, k, i)
	if nb >= 0 {
		from, to, producer := a.Machine(k, nb), winner, nb
		if nb > i {
			from, to, producer = winner, a.Machine(k, nb), i
		}
		if ru := a.RouteUtilizationIf(from, to, k, producer); !(v > ru) {
			v = ru
		}
	}
	for n, j := range row {
		if app.NominalTime[j]*app.NominalUtil[j]/s.Period > v {
			return int64(n + 1)
		}
	}
	return int64(m)
}

// walkString places string k the way the IMR does — a first application, then
// the contiguous region grown one application at a time to the left or the
// right, here in random order — and holds every scan to the oracle, in index
// order and in the given scan order, and its machines_read tally to
// termsComputed. It stops, as the IMR does, at the first scan the masks leave
// without a machine, and reports how many scans it compared.
func walkString(t *testing.T, label string, rng *rand.Rand, a *Allocation, k int, order *ScanOrder, machineOK func(j int) bool, routeOK func(j1, j2 int) bool) int {
	t.Helper()
	read := telemetry.C("heuristics.imr.machines_read")
	n := len(a.sys.Strings[k].Apps)
	scans := 0
	scan := func(i, nb int) bool {
		want := naiveScan(a, k, i, nb, machineOK, routeOK)
		for _, o := range []*ScanOrder{nil, order} {
			path := "index order"
			if o != nil {
				path = "scan order"
			}
			before := read.Value()
			if got := a.PlacementScan(k, i, nb, o, machineOK, routeOK); got != want {
				t.Fatalf("%s, %s: string %d application %d (neighbour %d): PlacementScan chose machine %d, the naive scan %d",
					label, path, k, i, nb, got, want)
			}
			if got, want := read.Value()-before, termsComputed(a, k, i, nb, o.Row(k, i), want); got != want {
				t.Fatalf("%s, %s: string %d application %d (neighbour %d): %d machine terms computed, want %d",
					label, path, k, i, nb, got, want)
			}
		}
		scans++
		if want < 0 {
			return false
		}
		a.Assign(k, i, want)
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

// TestPlacementScanMatchesNaive holds the bounded scan, in index order and in
// a scan order, to the naive one on keyed-random ships of every size the
// repository runs (a single machine, a pair, the paper's 12, the fleet's
// 128): over partial allocations, first applications and both neighbour
// directions, random machine and route masks down to all-masked (-1),
// continuous and tie-heavy floats, and again after a fully unassigned
// string's catalog floats were edited in place, the way a service rescale
// does between UnassignString and the re-placement, the scan order rebuilt
// after the edit.
func TestPlacementScanMatchesNaive(t *testing.T) {
	prev := telemetry.Active()
	telemetry.Enable() // before New: an allocation caches its counters
	defer telemetry.EnableRegistry(prev)
	rng := rand.New(rand.NewSource(22))
	for _, m := range []int{1, 2, 12, 128} {
		scans, refused, stopped := 0, 0, int64(0)
		for trial := 0; trial < 36; trial++ {
			sys := randomSystem(rng, m, 10, 6)
			label := "continuous"
			if trial%2 == 1 {
				quantize(sys)
				label = "quantized"
			}
			if trial < 24 {
				// Routes as loaded as machines, so the route term decides
				// often; past trial 24 machine terms decide, and the
				// ties between them a scan order visits out of index order.
				heatUp(sys, 1, 30)
			} else {
				label += ", light routes"
			}
			a := New(sys)
			order := NewScanOrder(sys)
			if order == nil {
				t.Fatalf("M=%d: no scan order built over a valid ship", m)
			}
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
					order = NewScanOrder(sys)
				}
				read := telemetry.C("heuristics.imr.machines_read").Value()
				n := walkString(t, label, rng, a, 0, order, machineOK, routeOK)
				// Each scan ran twice, M terms in index order.
				stopped += int64(2*n*m) - (telemetry.C("heuristics.imr.machines_read").Value() - read)
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
		if m >= 12 && stopped == 0 {
			t.Errorf("M=%d: no scan order stopped before its last machine", m)
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
		checkPinned(t, name, a, 0, 1, 0, nil, want)
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

	// The first machine of the scan order masked: the scan goes on to the
	// next, which takes the tie the masked machine would have won.
	a = pinSystem([3]float64{1, 4, 9}, [2]float64{2, 8})
	checkPinned(t, "first machine of the order masked", a, 0, 1, 0, func(j int) bool { return j != 0 }, 1)

	// The stop is on a machine term that exceeds the incumbent, not one that
	// equals it. The scan order is 2, 0, 1: machine 2 sets the incumbent at
	// 0.2 + 0.2 = 0.4, machine 0 (0.6) loses though its own term equals 0.4,
	// and machine 1, unloaded, ties the incumbent at a lower index and wins.
	// A stop at machine 0 — on a term that merely equals the incumbent — or a
	// skip of machine 1's tie — as index order may skip it, every later
	// machine having the higher index — returns machine 2.
	a = stopSystem()
	if row := NewScanOrder(a.System()).Row(0, 0); row[0] != 2 || row[1] != 0 || row[2] != 1 {
		t.Fatalf("stop premise broken: scan order %v, want [2 0 1]", row)
	}
	var mu [3]float64
	for j := range mu {
		mu[j] = a.MachineUtilizationIf(j, 0, 0)
	}
	if c0 := a.System().MachineDemandUtil(0, 0, 0); !(mu[2] == c0 && mu[0] > mu[2] && mu[1] == mu[2]) {
		t.Fatalf("stop premise broken: machine terms %v, machine 0's own %v", mu, c0)
	}
	checkPinned(t, "stop machine's own term equals the incumbent", a, 0, 0, Unassigned, nil, 1)
}

// checkPinned holds one scan of application i of string k, in index order and
// in the ship's scan order, to want and to the naive scan.
func checkPinned(t *testing.T, name string, a *Allocation, k, i, nb int, machineOK func(j int) bool, want int) {
	t.Helper()
	order := NewScanOrder(a.System())
	if order == nil {
		t.Fatalf("%s: no scan order built over a valid ship", name)
	}
	naive := naiveScan(a, k, i, nb, machineOK, nil)
	for _, o := range []*ScanOrder{nil, order} {
		if got := a.PlacementScan(k, i, nb, o, machineOK, nil); got != want || naive != want {
			t.Errorf("%s (scan order %v): PlacementScan chose machine %d, the naive scan %d, want %d", name, o.Row(k, i), got, naive, want)
		}
	}
}

// stopSystem is the ship of the stop's pinned case: string 0's single
// application costs 0.4, 0.4 and 0.2 on machines 0, 1 and 2, and string 1
// loads machines 0 and 2 with 0.2 each.
func stopSystem() *Allocation {
	sys := model.NewUniformSystem(3, 1)
	sys.AddString(model.AppString{Worth: 1, Period: 10, MaxLatency: 100, Apps: []model.Application{
		{NominalTime: []float64{4, 4, 2}, NominalUtil: []float64{1, 1, 1}, OutputKB: 1},
	}})
	sys.AddString(model.AppString{Worth: 1, Period: 10, MaxLatency: 100, Apps: []model.Application{
		{NominalTime: []float64{2, 2, 2}, NominalUtil: []float64{1, 1, 1}, OutputKB: 1},
		{NominalTime: []float64{2, 2, 2}, NominalUtil: []float64{1, 1, 1}, OutputKB: 1},
	}})
	a := New(sys)
	a.Assign(1, 0, 0)
	a.Assign(1, 1, 2)
	return a
}

// The scan allocates nothing, with masks or without, in either order.
func TestPlacementScanZeroAlloc(t *testing.T) {
	a := pinSystem([3]float64{1, 5, 9}, [2]float64{1, 8})
	order := NewScanOrder(a.System())
	machineOK := func(j int) bool { return j != 1 }
	routeOK := func(j1, j2 int) bool { return j2 != 0 }
	for name, scan := range map[string]func(){
		"first application": func() { a.PlacementScan(0, 1, Unassigned, nil, nil, nil) },
		"unmasked":          func() { a.PlacementScan(0, 1, 0, nil, nil, nil) },
		"masked":            func() { a.PlacementScan(0, 1, 0, nil, machineOK, routeOK) },
		"ordered":           func() { a.PlacementScan(0, 1, 0, order, nil, nil) },
		"ordered, masked":   func() { a.PlacementScan(0, 1, 0, order, machineOK, routeOK) },
	} {
		if allocs := testing.AllocsPerRun(100, scan); allocs != 0 {
			t.Errorf("%s scan allocated %.1f times, want 0", name, allocs)
		}
	}
}

// A scan order's rows are permutations of the machines, ascending by own work
// NominalTime·NominalUtil compared by bits, ties by index: over random floats,
// equal keys, and keys that differ only in their last bits, descending with
// the index (the low bits the row sort packs the index into). A catalog that
// fails model.Validate gets no order, and a nil order no rows.
func TestScanOrderRows(t *testing.T) {
	const m = 300
	rng := rand.New(rand.NewSource(48))
	sys := randomSystem(rng, m, 3, 4)
	equal, lowBits := model.UniformApp(m, 3, 0.5, 1), model.UniformApp(m, 1, 1, 1)
	for j := range lowBits.NominalTime {
		lowBits.NominalTime[j] = math.Float64frombits(math.Float64bits(1) + uint64(m-j))
	}
	last := sys.AddString(model.AppString{Worth: 1, Period: 10, MaxLatency: 100, Apps: []model.Application{equal, lowBits}})
	order := NewScanOrder(sys)
	if order == nil {
		t.Fatal("no scan order built over a valid ship")
	}
	for k := range sys.Strings {
		for i := range sys.Strings[k].Apps {
			app := &sys.Strings[k].Apps[i]
			row := order.Row(k, i)
			seen := make([]bool, m)
			for n, j := range row {
				if j < 0 || j >= m || seen[j] {
					t.Fatalf("string %d application %d: row %v is not a permutation of the machines", k, i, row)
				}
				seen[j] = true
				if n == 0 {
					continue
				}
				p := row[n-1]
				kp, kj := math.Float64bits(app.Work(int(p))), math.Float64bits(app.Work(int(j)))
				if kp > kj || kp == kj && p > j {
					t.Fatalf("string %d application %d: machine %d (work %v) before machine %d (work %v)", k, i, p, app.Work(int(p)), j, app.Work(int(j)))
				}
			}
		}
	}
	if row := order.Row(last, 0); row[0] != 0 || row[m-1] != m-1 {
		t.Errorf("equal keys: row starts %d and ends %d, want 0 and %d", row[0], row[m-1], m-1)
	}
	if row := order.Row(last, 1); row[0] != m-1 || row[m-1] != 0 {
		t.Errorf("keys descending in their last bits: row starts %d and ends %d, want %d and 0", row[0], row[m-1], m-1)
	}
	sys.Strings[0].Apps[0].NominalUtil[7] = 0
	if NewScanOrder(sys) != nil {
		t.Error("a scan order built over a catalog that fails model.Validate")
	}
	if (*ScanOrder)(nil).Row(0, 0) != nil {
		t.Error("a nil scan order has rows")
	}
}
