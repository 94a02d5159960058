// Allocation snapshots: serialization for daemon restarts. A snapshot is the
// mapping — every string's assignment vector — and nothing else. The rosters,
// their order and running sums, the tightness values and the utilizations are
// all functions of the mapping, so FromSnapshot rebuilds them by assigning the
// vectors in string-index order, and what it restores has the original's
// WriteState fingerprint byte for byte. FromSnapshot refuses what no mapping
// over the system can be (a wrong shape, a machine out of range); whether the
// vectors are the state a caller recorded is for that caller's digest to say.
//
// The format is versioned. Version 5, the only one read or written, holds the
// vectors alone (version 4 also listed every non-empty roster in canonical
// order and every string's tightness bits, version 3 each utilization's bits;
// version 2's rosters were in history order). Any other version is rejected
// with a typed SnapshotVersionError before any content is interpreted.

package feasibility

import (
	"fmt"

	"repro/internal/model"
)

// SnapshotVersion is the format version Snapshot writes and the only one
// FromSnapshot reads.
const SnapshotVersion = 5

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
}

// AllocationSnapshot is a JSON-serializable capture of an Allocation's
// mapping. It does not embed the system; FromSnapshot revalidates the
// snapshot against the system it is restored onto.
type AllocationSnapshot struct {
	// Version is the format version (see SnapshotVersion).
	Version int           `json:"version,omitempty"`
	Strings []StringState `json:"strings"`
}

// Snapshot captures the allocation's mapping. The attached DeltaAnalyzer (if
// any) is not part of the snapshot; callers should Commit any pending window
// first so the snapshot is of a settled state.
func (a *Allocation) Snapshot() *AllocationSnapshot {
	snap := &AllocationSnapshot{
		Version: SnapshotVersion,
		Strings: make([]StringState, len(a.machineOf)),
	}
	for k, mo := range a.machineOf {
		snap.Strings[k].Machines = append([]int(nil), mo...)
	}
	return snap
}

// FromSnapshot builds an allocation over sys holding the snapshot's mapping,
// assigning the vectors in string-index order; a snapshot taken by Snapshot
// restores to the original's WriteState fingerprint byte for byte. Any version
// but SnapshotVersion, a string count or vector length other than sys's, and a
// machine out of range are rejected rather than restored. sys need not be the
// system the snapshot was taken over, only of its shape: a scaled view of it
// takes the same mapping.
func FromSnapshot(sys *model.System, snap *AllocationSnapshot) (*Allocation, error) {
	if snap.Version != SnapshotVersion {
		return nil, &SnapshotVersionError{Version: snap.Version, Supported: SnapshotVersion}
	}
	if len(snap.Strings) != len(sys.Strings) {
		return nil, fmt.Errorf("feasibility: snapshot has %d strings, system has %d",
			len(snap.Strings), len(sys.Strings))
	}
	a := New(sys)
	for k, ss := range snap.Strings {
		if len(ss.Machines) != len(sys.Strings[k].Apps) {
			return nil, fmt.Errorf("feasibility: snapshot string %d has %d assignments, want %d",
				k, len(ss.Machines), len(sys.Strings[k].Apps))
		}
		for i, j := range ss.Machines {
			if j == Unassigned {
				continue
			}
			if j < 0 || j >= sys.Machines {
				return nil, fmt.Errorf("feasibility: snapshot string %d app %d on machine %d, out of range [0,%d)",
					k, i, j, sys.Machines)
			}
			a.Assign(k, i, j)
		}
	}
	return a, nil
}
