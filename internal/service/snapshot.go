// Daemon snapshots, so a killed daemon restarted with -restore resumes
// bit-identically. The ship does not change while the daemon serves it — only
// its workload does — so the two are stored apart. The base catalog
// (machines, bandwidth matrix, every string at scale 1) is written once per
// directory as compact JSON under a content-addressed name,
// catalog-<sha256 prefix>.json. The snapshot file beside it pins that catalog
// by base name and sha256 and carries what moves: the allocation as a
// feasibility.AllocationSnapshot (the assignment vectors alone; the allocation
// is the mapped set — a string is admitted iff the allocation places all of
// it), the demand multiplier per string (live demand is base × scale[k]),
// standing outages, the sequence number, the journal chain value, and the
// feasibility.StateDigest of the live allocation: kilobytes, whatever the ship.
//
// On restore the catalog's bytes must hash to the pinned sha256 and pass
// Validate, the scale vector must be finite and positive, and the allocation
// rebuilt over base × scale must reproduce the recorded digest — a snapshot
// that cannot reproduce the exact state is rejected rather than silently
// drifting, as is one that places only part of a string. The digest is the one
// check that the vectors are the state the file records: the rosters and
// tightness it covers are not in the file. Every file is written
// atomically (temp file in the target directory, fsync, rename, directory
// fsync), so a crash mid-write never clobbers the previous snapshot — which is
// what lets journal compaction treat the sidecar snapshot as its durable base.
package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/feasibility"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// SchemaVersionError reports a snapshot file (or journal record) whose schema
// version this daemon cannot serve: a newer daemon's file fed to an older
// binary, or a version-1 snapshot, which embeds a catalog whose floats are
// running products that base × scale cannot express. Callers match it with
// errors.As to distinguish a version skew (retriable with the right binary)
// from a corrupt or inconsistent snapshot. The allocation section has its own
// format version with the same contract; see feasibility.SnapshotVersionError.
type SchemaVersionError struct {
	Version   int // schema version recorded in the file
	Supported int // the schema version this daemon serves
}

func (e *SchemaVersionError) Error() string {
	return fmt.Sprintf("service: schema version %d, this daemon serves version %d",
		e.Version, e.Supported)
}

// CatalogRef pins the catalog file a snapshot is a state of.
type CatalogRef struct {
	// File is the catalog file's base name; it lives beside the snapshot.
	File string `json:"file"`
	// SHA256 is the hex sha256 of the file's bytes.
	SHA256 string `json:"sha256"`
}

// SnapshotFile is the on-disk snapshot format.
type SnapshotFile struct {
	SchemaVersion int `json:"schemaVersion"`
	// Catalog pins the base catalog; live demand is catalog × Scale.
	Catalog *CatalogRef `json:"catalog"`
	// Alloc is the exact-bit allocation snapshot.
	Alloc *feasibility.AllocationSnapshot `json:"alloc"`
	// Scale holds the demand multiplier in force per string.
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

// encodeCatalog is the one durable encoding of a catalog: compact JSON, named
// after the sha256 of its bytes.
func encodeCatalog(sys *model.System) ([]byte, CatalogRef, error) {
	data, err := json.Marshal(sys)
	if err != nil {
		return nil, CatalogRef{}, err
	}
	sum := hashHex(data)
	return data, CatalogRef{File: "catalog-" + sum[:16] + ".json", SHA256: sum}, nil
}

func hashHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// writeCatalog makes sure dir holds the base catalog's file. The encode and
// the write happen on this process's first snapshot into dir; the name being
// the content's hash, a file already there with the same bytes (a restart, a
// crash between this write and the first snapshot) is left alone.
func (st *state) writeCatalog(dir string) error {
	if st.catalogAt[filepath.Join(dir, st.catalog.File)] {
		return nil
	}
	data, ref, err := encodeCatalog(st.base)
	if err != nil {
		return fmt.Errorf("marshal catalog: %w", err)
	}
	path := filepath.Join(dir, ref.File)
	if have, err := os.ReadFile(path); err != nil || !bytes.Equal(have, data) {
		if err := writeFileAtomic(path, data); err != nil {
			return fmt.Errorf("write catalog: %w", err)
		}
		telemetry.C("service.journal.catalog_writes").Inc()
	}
	if st.catalogAt == nil {
		st.catalogAt = map[string]bool{}
	}
	st.catalog, st.catalogAt[path] = ref, true
	return nil
}

// snapshotTo writes the current state to path, and the catalog beside it if
// the directory does not hold it yet. Runs under the state mutex; journal
// compaction, the journal's base snapshot and POST /v1/snapshot all come
// through here.
func (st *state) snapshotTo(path string) (SnapshotResponse, *ErrorEnvelope) {
	if path == "" {
		path = st.cfg.SnapshotPath
	}
	// Catalog first: a crash between the two writes leaves a catalog no
	// snapshot names, which the next start simply finds in place.
	if err := st.writeCatalog(filepath.Dir(path)); err != nil {
		return SnapshotResponse{}, Errorf(CodeInternal, nil, "%v", err)
	}
	file := SnapshotFile{
		SchemaVersion: SchemaVersion,
		Catalog:       &st.catalog,
		Alloc:         st.alloc.Snapshot(),
		Scale:         st.scale,
		Down:          st.down.Resources(),
		Seq:           st.seq,
		Digest:        st.digest(),
		Chain:         st.chain,
	}
	data, err := json.Marshal(&file)
	if err != nil {
		return SnapshotResponse{}, Errorf(CodeInternal, nil, "marshal snapshot: %v", err)
	}
	if err := writeFileAtomic(path, data); err != nil {
		return SnapshotResponse{}, Errorf(CodeInternal, nil, "write snapshot: %v", err)
	}
	telemetry.H("service.journal.snapshot_bytes").Observe(float64(len(data)))
	return SnapshotResponse{
		SchemaVersion: SchemaVersion,
		Path:          path,
		Catalog:       filepath.Join(filepath.Dir(path), st.catalog.File),
		Digest:        file.Digest,
		Seq:           st.seq,
	}, nil
}

// Snapshot writes the daemon state to path (the configured default when
// empty) and returns the written digest. The state file names a catalog file
// in the same directory, written on the first snapshot into it; the two
// travel together.
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
	if file.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("service: snapshot %s: %w",
			path, &SchemaVersionError{Version: file.SchemaVersion, Supported: SchemaVersion})
	}
	return &file, nil
}

// loadCatalog reads the catalog file ref names in dir, refusing a reference
// that is not a plain file name, bytes that do not hash to the pinned sha256,
// and a catalog that fails Validate.
func loadCatalog(dir string, ref *CatalogRef) (*model.System, error) {
	if ref.File == "" || ref.File == "." || ref.File == ".." || strings.ContainsAny(ref.File, `/\`) {
		return nil, fmt.Errorf("catalog reference %q is not a plain file name", ref.File)
	}
	path := filepath.Join(dir, ref.File)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("catalog file: %w", err)
	}
	if got := hashHex(data); got != ref.SHA256 {
		return nil, fmt.Errorf("catalog file %s hashes to sha256 %s, the snapshot pins %s", path, got, ref.SHA256)
	}
	base, err := model.ParseSystem(data)
	if err != nil {
		return nil, fmt.Errorf("catalog file %s: %w", path, err)
	}
	return base, nil
}

// stateFromSnapshot validates a loaded snapshot and rebuilds the daemon
// state: the pinned catalog is loaded and hash-checked, the working view is
// rebuilt as catalog × scale, the allocation restored over it must
// reproduce the recorded digest, and it scans along one order built over the
// catalog. Shared by Restore (which starts serving
// immediately) and Recover (which replays the journal tail on the state
// first).
func stateFromSnapshot(path string, file *SnapshotFile, cfg Config) (*state, error) {
	if file.Catalog == nil || file.Alloc == nil {
		return nil, fmt.Errorf("service: snapshot %s is missing the catalog or allocation section", path)
	}
	dir := filepath.Dir(path)
	loadStart := time.Now()
	base, err := loadCatalog(dir, file.Catalog)
	if err != nil {
		return nil, fmt.Errorf("service: snapshot %s: %w", path, err)
	}
	catalogLoad := time.Since(loadStart)
	if cfg.System != nil {
		_, ref, err := encodeCatalog(cfg.System)
		if err != nil {
			return nil, fmt.Errorf("service: snapshot %s: marshal Config.System: %w", path, err)
		}
		if ref.SHA256 != file.Catalog.SHA256 {
			return nil, fmt.Errorf("service: snapshot %s is a state of catalog sha256 %s, the system given hashes to %s",
				path, file.Catalog.SHA256, ref.SHA256)
		}
	}
	n := len(base.Strings)
	if len(file.Scale) != n {
		return nil, fmt.Errorf("service: snapshot %s: scale length %d, want %d", path, len(file.Scale), n)
	}
	for k, g := range file.Scale {
		if !(g > 0) || math.IsInf(g, 0) {
			return nil, fmt.Errorf("service: snapshot %s: scale[%d] = %v, want finite positive", path, k, g)
		}
	}
	sys := model.ScaledView(base, file.Scale)
	alloc, err := feasibility.FromSnapshot(sys, file.Alloc)
	if err != nil {
		return nil, fmt.Errorf("service: snapshot %s: %w", path, err)
	}
	digest := feasibility.StateDigest(alloc)
	if digest != file.Digest {
		return nil, fmt.Errorf("service: snapshot %s: restored digest %s does not match recorded %s",
			path, digest, file.Digest)
	}
	// Every op ends with a whole string placed or removed, so a string placed
	// in part is a state no daemon wrote.
	for k := range sys.Strings {
		apps, placed := len(sys.Strings[k].Apps), 0
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
	down := faults.NewSet(sys.Machines)
	for _, r := range file.Down {
		if err := r.Validate(sys.Machines); err != nil {
			return nil, fmt.Errorf("service: snapshot %s: down resource: %w", path, err)
		}
		down.Fail(r)
	}
	cfg.System = base
	cfg.Heuristic = "" // the mapping comes from the snapshot
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := &state{
		cfg:         cfg,
		base:        base,
		sys:         sys,
		order:       feasibility.NewScanOrder(base),
		catalog:     *file.Catalog,
		catalogAt:   map[string]bool{filepath.Join(dir, file.Catalog.File): true},
		catalogLoad: catalogLoad,
		scale:       file.Scale,
		down:        down,
		seq:         file.Seq,
		digestMemo:  digest,
		digestSeq:   file.Seq,
		events:      newEventLog(),
	}
	st.attach(alloc)
	return st, nil
}

// Restore builds a Service from a snapshot file and the catalog file it pins
// (in the same directory). cfg.System is optional: nil serves the pinned
// catalog; a system that does not encode to the pinned sha256 is refused. The
// serving knobs (overload, repair, LP bound) come from cfg. The restored
// allocation must reproduce the digest recorded in the file.
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
