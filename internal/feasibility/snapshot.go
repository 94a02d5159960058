// Allocation snapshots: serialization for daemon restarts. A snapshot records
// the assignment vectors, every string's tightness bits (hex-encoded
// IEEE-754, NaN-safe for incomplete strings) and every roster in canonical
// order. The order, the running sums, the tightness and the utilizations —
// each a roster's total — are functions of the mapping, so FromSnapshot
// recomputes them and refuses a snapshot whose recorded tightness or roster
// order disagrees; what it restores has the original's WriteState
// fingerprint byte for byte.
//
// The format is versioned. Version 4, the only one read or written, lists
// machines sparsely — only machines with a non-empty roster, each tagged with
// its index — so a fleet-scale snapshot is O(loaded) rather than O(M), and
// records no utilization (version 3 recorded each one's bits; version 2's
// rosters were in history order). Any other version is rejected with a typed
// SnapshotVersionError before any content is interpreted.

package feasibility

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/model"
)

// SnapshotVersion is the format version Snapshot writes and the only one
// FromSnapshot reads.
const SnapshotVersion = 4

// SnapshotVersionError reports a snapshot written in a format this build does
// not understand — typically a newer daemon's file fed to an older binary.
// Callers match it with errors.As to distinguish "wrong version" from a
// corrupt or inconsistent snapshot.
type SnapshotVersionError struct {
	Version   int // version recorded in the snapshot (0 when absent)
	Supported int // the version this build reads
}

func (e *SnapshotVersionError) Error() string {
	return fmt.Sprintf("feasibility: snapshot version %d, this build reads version %d",
		e.Version, e.Supported)
}

// StringState is the per-string part of an AllocationSnapshot.
type StringState struct {
	// Machines is the assignment vector (Unassigned = -1 entries allowed).
	Machines []int `json:"machines"`
	// Tightness is the hex-encoded IEEE-754 bit pattern of the cached
	// equation-(4) tightness (NaN while the string is incomplete).
	Tightness string `json:"tightness"`
}

// MachineState is the per-machine part of an AllocationSnapshot.
type MachineState struct {
	// Machine is the machine index; snapshots list machines sparsely.
	Machine int `json:"machine,omitempty"`
	// Roster lists the assigned applications as (string, app) pairs in
	// canonical roster order.
	Roster [][2]int `json:"roster,omitempty"`
}

// RouteState is one active route of an AllocationSnapshot; routes with an
// empty roster are omitted.
type RouteState struct {
	From int `json:"from"`
	To   int `json:"to"`
	// Roster lists the producing applications whose output uses the route,
	// as (string, app) pairs in canonical roster order.
	Roster [][2]int `json:"roster"`
}

// AllocationSnapshot is a JSON-serializable, exact-bit capture of an
// Allocation's observable state over its system. It does not embed the
// system; FromSnapshot revalidates the snapshot against the system it is
// restored onto.
type AllocationSnapshot struct {
	// Version is the format version (see SnapshotVersion).
	Version  int            `json:"version,omitempty"`
	Strings  []StringState  `json:"strings"`
	Machines []MachineState `json:"machines"`
	Routes   []RouteState   `json:"routes,omitempty"`
}

// encBits hex-encodes a float64's IEEE-754 bit pattern (NaN-safe).
func encBits(f float64) string {
	return string(appendBits(nil, f))
}

// decBits decodes a hex bit pattern written by encBits.
func decBits(s string) (float64, error) {
	u, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("feasibility: bad float bit pattern %q: %w", s, err)
	}
	return math.Float64frombits(u), nil
}

func rosterPairs(refs []rosterEntry) [][2]int {
	if len(refs) == 0 {
		return nil
	}
	out := make([][2]int, len(refs))
	for idx, r := range refs {
		out[idx] = [2]int{r.k, r.i}
	}
	return out
}

// Snapshot captures the allocation's observable state exactly. The attached
// DeltaAnalyzer (if any) is not part of the snapshot; callers should Commit
// any pending window first so the snapshot is of a settled state.
func (a *Allocation) Snapshot() *AllocationSnapshot {
	snap := &AllocationSnapshot{
		Version: SnapshotVersion,
		Strings: make([]StringState, len(a.machineOf)),
	}
	for k := range a.machineOf {
		snap.Strings[k] = StringState{
			Machines:  append([]int(nil), a.machineOf[k]...),
			Tightness: encBits(a.tightness[k]),
		}
	}
	// Machines sparsely, ascending: a machine omitted here restores to an
	// empty roster.
	for j := range a.perMachine {
		if len(a.perMachine[j]) > 0 {
			snap.Machines = append(snap.Machines, MachineState{Machine: j, Roster: rosterPairs(a.perMachine[j])})
		}
	}
	// The adjacency stores active routes in canonical (from, to) order
	// already, so equal states produce equal snapshot files regardless of
	// activation history.
	for j1, adj := range a.adj {
		for _, r := range adj {
			snap.Routes = append(snap.Routes, RouteState{From: j1, To: int(r.peer), Roster: rosterPairs(a.routes[r.slot].apps)})
		}
	}
	return snap
}

// FromSnapshot restores an allocation over sys from a snapshot previously
// produced by Snapshot, reproducing the original's WriteState fingerprint
// byte for byte. The snapshot is validated against the system: shape
// mismatches, out-of-range references, rosters inconsistent with the
// assignment vectors or out of canonical order, and tightness bits other than
// the mapping's are rejected rather than restored.
func FromSnapshot(sys *model.System, snap *AllocationSnapshot) (*Allocation, error) {
	if snap.Version != SnapshotVersion {
		return nil, &SnapshotVersionError{Version: snap.Version, Supported: SnapshotVersion}
	}
	if len(snap.Strings) != len(sys.Strings) {
		return nil, fmt.Errorf("feasibility: snapshot has %d strings, system has %d",
			len(snap.Strings), len(sys.Strings))
	}
	a := New(sys)
	totalAssigned := 0
	for k, ss := range snap.Strings {
		if len(ss.Machines) != len(sys.Strings[k].Apps) {
			return nil, fmt.Errorf("feasibility: snapshot string %d has %d assignments, want %d",
				k, len(ss.Machines), len(sys.Strings[k].Apps))
		}
		n := 0
		for i, j := range ss.Machines {
			if j == Unassigned {
				continue
			}
			if j < 0 || j >= sys.Machines {
				return nil, fmt.Errorf("feasibility: snapshot string %d app %d on machine %d, out of range [0,%d)",
					k, i, j, sys.Machines)
			}
			n++
		}
		t, err := decBits(ss.Tightness)
		if err != nil {
			return nil, fmt.Errorf("feasibility: snapshot string %d tightness: %w", k, err)
		}
		copy(a.machineOf[k], ss.Machines)
		a.nAssigned[k] = n
		if a.Complete(k) {
			a.tightness[k] = a.computeTightness(k)
		}
		if math.Float64bits(t) != math.Float64bits(a.tightness[k]) {
			return nil, fmt.Errorf("feasibility: snapshot string %d records tightness %s, its mapping gives %s",
				k, ss.Tightness, encBits(a.tightness[k]))
		}
		totalAssigned += n
	}
	rostered := 0
	seen := make(map[appRef]bool, totalAssigned)
	// Sparse machine entries: strictly ascending indices, each in range;
	// machines not listed keep the fresh allocation's empty roster.
	prev := -1
	for idx := range snap.Machines {
		ms := &snap.Machines[idx]
		j := ms.Machine
		if j <= prev || j >= sys.Machines {
			return nil, fmt.Errorf("feasibility: snapshot machine entry %d (machine %d) out of order or out of range [0,%d)",
				idx, j, sys.Machines)
		}
		prev = j
		for _, ref := range ms.Roster {
			k, i := ref[0], ref[1]
			if k < 0 || k >= len(sys.Strings) || i < 0 || i >= len(sys.Strings[k].Apps) {
				return nil, fmt.Errorf("feasibility: snapshot machine %d roster names unknown application (%d,%d)", j, k, i)
			}
			if a.machineOf[k][i] != j {
				return nil, fmt.Errorf("feasibility: snapshot machine %d roster lists application (%d,%d), assigned to machine %d",
					j, k, i, a.machineOf[k][i])
			}
			if seen[appRef{k, i}] {
				return nil, fmt.Errorf("feasibility: snapshot machine rosters list application (%d,%d) twice", k, i)
			}
			seen[appRef{k, i}] = true
			a.perMachine[j] = append(a.perMachine[j], rosterEntry{appRef: appRef{k, i}, wait: sys.MachineDemandUtil(k, i, j)})
		}
		if err := a.canonical(a.perMachine[j]); err != nil {
			return nil, fmt.Errorf("feasibility: snapshot machine %d roster: %w", j, err)
		}
		a.reprice(a.perMachine[j], 0, a.posM, int32(j))
		a.setMachineUtil(j)
		rostered += len(ms.Roster)
	}
	if rostered != totalAssigned {
		return nil, fmt.Errorf("feasibility: snapshot rosters hold %d applications, assignment vectors hold %d",
			rostered, totalAssigned)
	}
	// Expected inter-machine adjacent pairs, to cross-check route rosters.
	wantRouted := 0
	for k := range a.machineOf {
		mo := a.machineOf[k]
		for i := 0; i+1 < len(mo); i++ {
			if mo[i] != Unassigned && mo[i+1] != Unassigned && mo[i] != mo[i+1] {
				wantRouted++
			}
		}
	}
	routed := 0
	seenRoute := make(map[appRef]bool, wantRouted)
	for _, rs := range snap.Routes {
		if rs.From < 0 || rs.From >= sys.Machines || rs.To < 0 || rs.To >= sys.Machines || rs.From == rs.To {
			return nil, fmt.Errorf("feasibility: snapshot route %d->%d invalid for %d machines", rs.From, rs.To, sys.Machines)
		}
		if len(rs.Roster) == 0 {
			return nil, fmt.Errorf("feasibility: snapshot route %d->%d has an empty roster", rs.From, rs.To)
		}
		idx, ok := a.routeIndex(rs.From, rs.To)
		if ok {
			return nil, fmt.Errorf("feasibility: snapshot lists route %d->%d twice", rs.From, rs.To)
		}
		slot := a.openRoute(rs.From, idx, rs.To)
		e := &a.routes[slot]
		for _, ref := range rs.Roster {
			k, i := ref[0], ref[1]
			if k < 0 || k >= len(sys.Strings) || i < 0 || i+1 >= len(sys.Strings[k].Apps) {
				return nil, fmt.Errorf("feasibility: snapshot route %d->%d roster names unknown producer (%d,%d)", rs.From, rs.To, k, i)
			}
			if a.machineOf[k][i] != rs.From || a.machineOf[k][i+1] != rs.To {
				return nil, fmt.Errorf("feasibility: snapshot route %d->%d roster lists (%d,%d), whose transfer runs %d->%d",
					rs.From, rs.To, k, i, a.machineOf[k][i], a.machineOf[k][i+1])
			}
			if seenRoute[appRef{k, i}] {
				return nil, fmt.Errorf("feasibility: snapshot route rosters list producer (%d,%d) twice", k, i)
			}
			seenRoute[appRef{k, i}] = true
			e.apps = append(e.apps, a.transferEntry(k, i, rs.From, rs.To))
		}
		if err := a.canonical(e.apps); err != nil {
			return nil, fmt.Errorf("feasibility: snapshot route %d->%d roster: %w", rs.From, rs.To, err)
		}
		a.reprice(e.apps, 0, a.posR, slot)
		a.setRouteUtil(e)
		routed += len(rs.Roster)
	}
	if routed != wantRouted {
		return nil, fmt.Errorf("feasibility: snapshot route rosters hold %d transfers, assignments imply %d", routed, wantRouted)
	}
	return a, nil
}

// canonical reports the first adjacent pair of roster entries out of canonical
// order, as an error.
func (a *Allocation) canonical(roster []rosterEntry) error {
	for idx := 1; idx < len(roster); idx++ {
		if x, y := roster[idx-1].appRef, roster[idx].appRef; !a.ahead(x, y) {
			return fmt.Errorf("(%d,%d) is listed before (%d,%d), out of canonical order", x.k, x.i, y.k, y.i)
		}
	}
	return nil
}
