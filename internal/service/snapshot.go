// Daemon snapshots: the whole observable service state in one JSON file, so
// a killed daemon restarted with -restore resumes bit-identically. The
// allocation part rides on feasibility.AllocationSnapshot (exact IEEE-754 bit
// patterns) and is the mapped set — a string is admitted iff the allocation
// places all of it, so the file has no separate mapped section (files that
// still carry one load unchanged; the section is ignored). The file
// additionally pins the system catalog (rescales mutate it), cumulative scale
// factors, standing outages, the sequence number, the journal chain value,
// and the feasibility.StateDigest of the live allocation. On restore the
// digest is recomputed and must match — a snapshot that cannot reproduce the
// exact state is rejected rather than silently drifting, as is one that
// places only part of a string. Snapshot writes are atomic
// (temp file in the target directory, fsync, rename), so a crash mid-write
// never clobbers the previous snapshot — which is what lets journal
// compaction treat the sidecar snapshot as its durable base.
package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/faults"
	"repro/internal/feasibility"
	"repro/internal/model"
)

// SchemaVersionError reports a snapshot file (or journal record) whose schema
// version this daemon cannot serve — typically a newer daemon's file fed to
// an older binary. Callers match it with errors.As to distinguish a version
// skew (retriable with the right binary) from a corrupt or inconsistent
// snapshot. The allocation section has its own format version with the same
// contract; see feasibility.SnapshotVersionError.
type SchemaVersionError struct {
	Version   int // schema version recorded in the file
	Supported int // newest schema version this daemon serves
}

func (e *SchemaVersionError) Error() string {
	return fmt.Sprintf("service: snapshot schema version %d, this daemon supports 1..%d",
		e.Version, e.Supported)
}

// SnapshotFile is the on-disk snapshot format.
type SnapshotFile struct {
	SchemaVersion int `json:"schemaVersion"`
	// System is the live catalog, including any accepted rescales.
	System *model.System `json:"system"`
	// Alloc is the exact-bit allocation snapshot.
	Alloc *feasibility.AllocationSnapshot `json:"alloc"`
	// Scale holds the cumulative rescale factor per string.
	Scale []float64 `json:"scale"`
	// Down lists the standing resource outages.
	Down []faults.Resource `json:"down,omitempty"`
	// Seq is the decision sequence number at snapshot time.
	Seq uint64 `json:"seq"`
	// Digest is the feasibility.StateDigest of the allocation at snapshot
	// time; restore verifies the restored allocation reproduces it.
	Digest string `json:"digest"`
	// Chain is the running journal chain-check value at snapshot time (empty
	// when journaling is off).
	Chain string `json:"chain,omitempty"`
}

// writeFileAtomic writes data to path via a temp file in the same directory,
// fsync, and rename, so concurrent readers and crashes see either the old
// complete file or the new complete file, never a torn one.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Best effort: make the rename itself durable against power loss.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// snapshotTo writes the current state to path. Runs on the state loop.
func (st *state) snapshotTo(path string) (SnapshotResponse, *ErrorEnvelope) {
	if path == "" {
		path = st.cfg.SnapshotPath
	}
	file := SnapshotFile{
		SchemaVersion: SchemaVersion,
		System:        st.sys,
		Alloc:         st.alloc.Snapshot(),
		Scale:         st.scale,
		Down:          st.down.Resources(),
		Seq:           st.seq,
		Digest:        feasibility.StateDigest(st.alloc),
		Chain:         st.chain,
	}
	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return SnapshotResponse{}, Errorf(CodeInternal, nil, "marshal snapshot: %v", err)
	}
	if err := writeFileAtomic(path, append(data, '\n')); err != nil {
		return SnapshotResponse{}, Errorf(CodeInternal, nil, "write snapshot: %v", err)
	}
	return SnapshotResponse{
		SchemaVersion: SchemaVersion,
		Path:          path,
		Digest:        file.Digest,
		Seq:           st.seq,
	}, nil
}

// Snapshot writes the daemon state to path (the configured default when
// empty) and returns the written digest.
func (s *Service) Snapshot(path string) (SnapshotResponse, error) {
	var resp SnapshotResponse
	var e *ErrorEnvelope
	if err := s.exec(func(st *state) { resp, e = st.snapshotTo(path) }); err != nil {
		return SnapshotResponse{}, err
	}
	if e != nil {
		return SnapshotResponse{}, e
	}
	return resp, nil
}

// loadSnapshotFile reads and version-checks a snapshot file.
func loadSnapshotFile(path string) (*SnapshotFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("service: read snapshot: %w", err)
	}
	var file SnapshotFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("service: parse snapshot %s: %w", path, err)
	}
	if file.SchemaVersion < 1 || file.SchemaVersion > SchemaVersion {
		return nil, fmt.Errorf("service: snapshot %s: %w",
			path, &SchemaVersionError{Version: file.SchemaVersion, Supported: SchemaVersion})
	}
	return &file, nil
}

// stateFromSnapshot validates a loaded snapshot and rebuilds the daemon
// state, verifying that the restored allocation reproduces the recorded
// digest. Shared by Restore (which starts serving immediately) and Recover
// (which replays the journal tail on the state first).
func stateFromSnapshot(path string, file *SnapshotFile, cfg Config) (*state, error) {
	if file.System == nil || file.Alloc == nil {
		return nil, fmt.Errorf("service: snapshot %s is missing the system or allocation section", path)
	}
	if err := file.System.Validate(); err != nil {
		return nil, fmt.Errorf("service: snapshot %s: %w", path, err)
	}
	n := len(file.System.Strings)
	if len(file.Scale) != n {
		return nil, fmt.Errorf("service: snapshot %s: scale length %d, want %d", path, len(file.Scale), n)
	}
	alloc, err := feasibility.FromSnapshot(file.System, file.Alloc)
	if err != nil {
		return nil, fmt.Errorf("service: snapshot %s: %w", path, err)
	}
	if got := feasibility.StateDigest(alloc); got != file.Digest {
		return nil, fmt.Errorf("service: snapshot %s: restored digest %s does not match recorded %s",
			path, got, file.Digest)
	}
	// Every op ends with a whole string placed or removed, so a string placed
	// in part is a state no daemon wrote.
	for k := range file.System.Strings {
		apps, placed := len(file.System.Strings[k].Apps), 0
		for i := 0; i < apps; i++ {
			if alloc.Machine(k, i) != feasibility.Unassigned {
				placed++
			}
		}
		if placed != 0 && placed != apps {
			return nil, fmt.Errorf("service: snapshot %s: string %d is partially placed (%d of %d applications)",
				path, k, placed, apps)
		}
	}
	down := faults.NewSet(file.System.Machines)
	for _, r := range file.Down {
		if err := r.Validate(file.System.Machines); err != nil {
			return nil, fmt.Errorf("service: snapshot %s: down resource: %w", path, err)
		}
		down.Fail(r)
	}
	cfg.System = file.System
	cfg.Heuristic = "" // the mapping comes from the snapshot
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &state{
		cfg:    cfg,
		sys:    file.System,
		alloc:  alloc,
		scale:  append([]float64(nil), file.Scale...),
		down:   down,
		seq:    file.Seq,
		events: newEventLog(cfg.EventBuffer),
	}, nil
}

// Restore builds a Service from a snapshot file. The cfg.System field is
// ignored — the snapshot carries its own catalog — while the serving knobs
// (overload, repair, LP bound) come from cfg. The restored allocation must
// reproduce the digest recorded in the file.
func Restore(path string, cfg Config) (*Service, error) {
	file, err := loadSnapshotFile(path)
	if err != nil {
		return nil, err
	}
	st, err := stateFromSnapshot(path, file, cfg)
	if err != nil {
		return nil, err
	}
	// Resume the chain check recorded by a journaling daemon; it is empty for
	// snapshots written without a journal.
	st.chain = file.Chain
	return startService(st)
}
