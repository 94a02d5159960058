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

// quantizeWork snaps every application's own work t·u to a coarse grid while
// drawing its utilization from a few values, so that equal work comes from
// different (t, u) pairs: keys within an ulp or two of each other, whose
// order a scaled view's terms may not keep — the near ties the stop's margin
// must absorb.
func quantizeWork(rng *rand.Rand, sys *model.System) {
	utils := []float64{1, 0.75, 0.6, 0.35}
	for k := range sys.Strings {
		for i := range sys.Strings[k].Apps {
			app := &sys.Strings[k].Apps[i]
			for j := range app.NominalTime {
				u := utils[rng.Intn(len(utils))]
				app.NominalTime[j] = (1 + math.Floor(app.NominalTime[j]/4)) / u
				app.NominalUtil[j] = u
			}
		}
	}
}

// isNormal reports whether x is a finite normal float, by magnitude.
func isNormal(x float64) bool {
	return math.Abs(x) >= 0x1p-1022 && math.Abs(x) <= math.MaxFloat64
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
// c = t'·u/P, read from the allocation's floats, exceeds the winner's value v
// by the margin, c > v + v·2⁻⁴⁷, with t'·u and c finite normal floats —
// the first machine the scan stops at, whose incumbent is then v or above it
// — or every machine when none does or the masks left no winner.
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
		w := app.NominalTime[j] * app.NominalUtil[j]
		if c := w / s.Period; c > v+v*0x1p-47 && isNormal(w) && isNormal(c) {
			return int64(n + 1)
		}
	}
	return int64(m)
}

// walkString places string k the way the IMR does — a first application, then
// the contiguous region grown one application at a time to the left or the
// right, here in random order — and holds every scan to the oracle, in index
// order and along the given scan order attached, and its machines_read tally
// to termsComputed. It stops, as the IMR does, at the first scan the masks leave
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
			a.AttachScanOrder(o)
			before := read.Value()
			if got := a.PlacementScan(k, i, nb, machineOK, routeOK); got != want {
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

// TestPlacementScanMatchesNaive holds the bounded scan, in index order and
// along a scan order, to the naive one on keyed-random ships of every size
// the repository runs (a single machine, a pair, the paper's 12, the fleet's
// 128): over partial allocations, first applications and both neighbour
// directions, random machine and route masks down to all-masked (-1),
// continuous, tie-heavy and near-tie floats. Even trials scan over the
// catalog the order was built from, as a decoder lane does, and again after
// a fully unassigned string's floats were edited in place and the order
// rebuilt. Odd trials scan over a model.ScaledView of it at scales in
// [0.7, 3], as the service does, along the order over the catalog, and again
// after the view's string was rescaled the way a service rescale does — to a
// new scale in that range, to one that overflows its larger times to +Inf,
// to one that pushes every t·u below the normal range with a period that
// brings the terms back into it, and with a period that pushes the terms
// below it — the order kept.
func TestPlacementScanMatchesNaive(t *testing.T) {
	prev := telemetry.Active()
	telemetry.Enable() // before New: an allocation caches its counters
	defer telemetry.EnableRegistry(prev)
	read := telemetry.C("heuristics.imr.machines_read")
	rng := rand.New(rand.NewSource(22))
	for _, m := range []int{1, 2, 12, 128} {
		scans, refused := 0, 0
		var stopped [2]int64 // machine terms the stops saved, over the catalog and over views
		for trial := 0; trial < 48; trial++ {
			base := randomSystem(rng, m, 10, 6)
			label := "continuous"
			switch trial % 3 {
			case 1:
				quantize(base)
				label = "quantized"
			case 2:
				quantizeWork(rng, base)
				label = "quantized work"
			}
			if trial < 32 {
				// Routes as loaded as machines, so the route term decides
				// often; past trial 32 machine terms decide, and the
				// ties between them a scan order visits out of index order.
				heatUp(base, 1, 30)
			} else {
				label += ", light routes"
			}
			order := NewScanOrder(base)
			if order == nil {
				t.Fatalf("M=%d: no scan order built over a valid ship", m)
			}
			sys, view := base, trial%2
			if view == 1 {
				scale := make([]float64, len(base.Strings))
				for k := range scale {
					scale[k] = 0.7 + 2.3*rng.Float64()
				}
				sys = model.ScaledView(base, scale)
				label += ", scaled view"
			}
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
			for round := 0; round < 7; round++ {
				machineOK, routeOK := randomMasks(rng, m)
				s := &sys.Strings[0]
				switch {
				case round < 3:
				case view == 0:
					// The rescale pattern: the string is out of every
					// roster while its floats move.
					scaleDemand(s, 0.5+rng.Float64())
					s.Period *= 0.5 + rng.Float64()
					order = NewScanOrder(sys)
				case round == 3:
					model.ScaleDemand(s.Apps, base.Strings[0].Apps, 0.7+2.3*rng.Float64())
				case round == 4:
					// Times above 5 overflow to +Inf, smaller ones stay
					// finite within a factor of 5 of MaxFloat64.
					model.ScaleDemand(s.Apps, base.Strings[0].Apps, math.MaxFloat64/5)
				case round == 5:
					// Every t' and t'·u subnormal, rounded to a few bits;
					// the period lifts the terms c back to normal floats.
					model.ScaleDemand(s.Apps, base.Strings[0].Apps, 0x1p-1070)
					s.Period = 0x1p-60
				default:
					// Normal times and t'·u, and terms c below the normal
					// range.
					model.ScaleDemand(s.Apps, base.Strings[0].Apps, (0.7+2.3*rng.Float64())*0x1p-30)
					s.Period = 0x1p1000
				}
				before := read.Value()
				n := walkString(t, label, rng, a, 0, order, machineOK, routeOK)
				// Each scan ran twice, M terms in index order.
				stopped[view] += int64(2*n*m) - (read.Value() - before)
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
		if m >= 12 && (stopped[0] == 0 || stopped[1] == 0) {
			t.Errorf("M=%d: scan orders saved %d machine terms over the catalog and %d over views; want some of both", m, stopped[0], stopped[1])
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
		checkPinned(t, name, a, a.System(), 0, 1, 0, nil, want)
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
	checkPinned(t, "first machine of the order masked", a, a.System(), 0, 1, 0, func(j int) bool { return j != 0 }, 1)

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
	checkPinned(t, "stop machine's own term equals the incumbent", a, a.System(), 0, 0, Unassigned, nil, 1)

	// The same three machines over a scaled view, scanned along the order
	// over the catalog, each case a first application (no route term) whose
	// keys put machines 1, 2, 0 in that order: machine 1 the incumbent,
	// machine 2 where a scan may stop, machine 0 the winner behind it. A
	// second string puts load on machine loadOn.
	viewCase := func(name string, times, utils [3]float64, period, g float64, load float64, loadOn int, terms func(c [3]float64) bool) {
		t.Helper()
		base := model.NewUniformSystem(3, 1)
		base.AddString(model.AppString{Worth: 1, Period: period, MaxLatency: 100, Apps: []model.Application{
			{NominalTime: times[:], NominalUtil: utils[:], OutputKB: 1},
		}})
		base.AddString(model.AppString{Worth: 1, Period: 1, MaxLatency: 100, Apps: []model.Application{
			{NominalTime: []float64{load, load, load}, NominalUtil: []float64{1, 1, 1}, OutputKB: 1},
		}})
		a := New(model.ScaledView(base, []float64{g, 1}))
		a.Assign(1, 0, loadOn)
		order := NewScanOrder(base)
		if row := order.Row(0, 0); row[0] != 1 || row[1] != 2 || row[2] != 0 {
			t.Fatalf("%s premise broken: scan order %v, want [1 2 0]", name, row)
		}
		var c [3]float64
		for j := range c {
			c[j] = a.System().MachineDemandUtil(0, 0, j)
		}
		if !terms(c) {
			t.Fatalf("%s premise broken: view terms %v", name, c)
		}
		checkPinned(t, name, a, base, 0, 0, Unassigned, nil, 0)
	}

	// A near tie the view reorders: keys 1 < 2 < 0 by an ulp each, terms
	// c1 = c0 < c2 by an ulp. Machine 2's term exceeds the incumbent but not
	// by the margin, so the scan goes on to machine 0, which ties at the
	// lower index and wins; a stop at machine 2 returns machine 1.
	viewCase("near tie reordered by the scale",
		[3]float64{46.01356937900662, 17.284169370398686, 14.406630796122249},
		[3]float64{0.16112102701492792, 0.42893316977471707, 0.5146070347664982},
		25.63223985740467, 2.523397350065227, 1e-30, 2,
		func(c [3]float64) bool { return c[0] == c[1] && c[1] < c[2] && c[2] <= c[1]+c[1]*0x1p-47 })

	// A scale that overflows machine 2's time to +Inf: its term is +Inf, yet
	// machine 0, with a larger key and a finite term, wins against the
	// loaded incumbent. The guard keeps the +Inf term from stopping the scan.
	viewCase("time overflowed to +Inf",
		[3]float64{100, 1, 1e10}, [3]float64{1, 1, 1e-9}, 10, 1e300, 1e303, 1,
		func(c [3]float64) bool { return c[0] == 1e301 && c[1] == 1e299 && math.IsInf(c[2], 1) })

	// A scale that pushes t'·u below the normal range, where rounding is
	// absolute: machines 1 and 0 round to a zero term, machine 2 to the
	// smallest subnormal. It exceeds the incumbent 0 by any margin, but is
	// not a normal float, so the scan goes on to machine 0's tie at the lower
	// index.
	viewCase("t·u below the normal range",
		[3]float64{1.2, 1.4, 1.6}, [3]float64{0.45, 0.3, 0.3}, 1, 0x1p-1074, 1, 2,
		func(c [3]float64) bool { return c[0] == 0 && c[1] == 0 && c[2] == 0x1p-1074 })
}

// checkPinned holds one scan of application i of string k, in index order and
// along the scan order of over (a.System() or the catalog it is a view of),
// to want and to the naive scan.
func checkPinned(t *testing.T, name string, a *Allocation, over *model.System, k, i, nb int, machineOK func(j int) bool, want int) {
	t.Helper()
	order := NewScanOrder(over)
	if order == nil {
		t.Fatalf("%s: no scan order built over a valid ship", name)
	}
	naive := naiveScan(a, k, i, nb, machineOK, nil)
	for _, o := range []*ScanOrder{nil, order} {
		a.AttachScanOrder(o)
		if got := a.PlacementScan(k, i, nb, machineOK, nil); got != want || naive != want {
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
	for _, o := range []*ScanOrder{nil, order} {
		a.AttachScanOrder(o)
		for name, scan := range map[string]func(){
			"first application": func() { a.PlacementScan(0, 1, Unassigned, nil, nil) },
			"unmasked":          func() { a.PlacementScan(0, 1, 0, nil, nil) },
			"masked":            func() { a.PlacementScan(0, 1, 0, machineOK, routeOK) },
		} {
			if allocs := testing.AllocsPerRun(100, scan); allocs != 0 {
				t.Errorf("%s scan (scan order %v) allocated %.1f times, want 0", name, o.Row(0, 1), allocs)
			}
		}
	}
}

// A scan order's rows are permutations of the machines, ascending by own work
// NominalTime·NominalUtil compared by bits, ties by index: over random floats,
// equal keys, and keys that differ only in their last bits, descending with
// the index (the low bits the row sort packs the index into). A catalog that
// fails model.Validate gets no order, nor does one with a work key that is not
// a normal float, and a nil order has no rows.
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
	tiny := &sys.Strings[0].Apps[0]
	tiny.NominalTime[7], tiny.NominalUtil[7] = 1e-300, 1e-10
	if err := sys.Validate(); err != nil || isNormal(tiny.Work(7)) {
		t.Fatalf("subnormal-key premise broken: Validate %v, key %v", err, tiny.Work(7))
	}
	if NewScanOrder(sys) != nil {
		t.Error("a scan order built over a catalog with a subnormal work key")
	}
	sys.Strings[0].Apps[0].NominalUtil[7] = 0
	if NewScanOrder(sys) != nil {
		t.Error("a scan order built over a catalog that fails model.Validate")
	}
	if (*ScanOrder)(nil).Row(0, 0) != nil {
		t.Error("a nil scan order has rows")
	}
}

// An order attaches to an allocation over the catalog it was built from or
// over a model.ScaledView of it, and to nothing else: a copy of the catalog,
// a view of a copy, or a ship of another shape panics.
func TestAttachScanOrderRefusesAnotherCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	base := randomSystem(rng, 4, 3, 3)
	order := NewScanOrder(base)
	view := model.ScaledView(base, []float64{2, 0.5, 3})
	for _, sys := range []*model.System{base, view} {
		a := New(sys)
		a.AttachScanOrder(order)
		a.AttachScanOrder(nil)
	}
	for name, sys := range map[string]*model.System{
		"a copy of the catalog": base.Clone(),
		"a view of a copy":      model.ScaledView(base.Clone(), []float64{2, 0.5, 3}),
		"another shape":         randomSystem(rng, 4, 2, 3),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: attaching an order over another catalog did not panic", name)
				}
			}()
			New(sys).AttachScanOrder(order)
		}()
	}
}
