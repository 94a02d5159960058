package soak

// journal.go is the durability stage of the soak pipeline: it drives a keyed
// random op sequence through a journaled service instance, crash-ignorantly
// closes it, recovers from the write-ahead journal, and hard-fails the whole
// run unless the recovered state is bit-identical to the live one — seq and
// feasibility.StateDigest compared exactly. Compaction is forced mid-stream
// so the snapshot+tail recovery path (not just pure replay) is exercised on
// every soak run. The digest covers the decision stream and the recovery
// report, extending the multi-worker determinism and stream-isolation
// contracts to the journal subsystem.

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/service"
)

// journalStage runs a journaled service over the generated system (which the
// service never writes to), recovers it, and returns a digest over the
// decision stream and the recovered state.
func journalStage(sys *model.System, ops int, seed int64) (string, error) {
	dir, err := os.MkdirTemp("", "soak-journal-*")
	if err != nil {
		return "", fmt.Errorf("soak: journal stage: %w", err)
	}
	defer os.RemoveAll(dir)
	jp := filepath.Join(dir, "soak.wal")

	svc, err := service.New(service.Config{
		System:       sys,
		Journal:      jp,
		Fsync:        journal.FsyncNone, // process-crash durability is enough here
		CompactEvery: 10,                // force snapshot+tail recovery, not pure replay
		DigestEvery:  4,                 // frequent full-digest records for replay to verify
	})
	if err != nil {
		return "", fmt.Errorf("soak: journal stage: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			svc.Close()
		}
	}()

	r := rng.NewRand(seed, rng.SubsystemJournal, 0)
	d := newDigest()
	for i := 0; i < ops; i++ {
		st, err := svc.State()
		if err != nil {
			return "", fmt.Errorf("soak: journal stage op %d: %w", i, err)
		}
		var dec service.Decision
		var mapped, unmapped []int
		for _, ss := range st.StringStates {
			if ss.Mapped {
				mapped = append(mapped, ss.ID)
			} else {
				unmapped = append(unmapped, ss.ID)
			}
		}
		switch p := r.Intn(100); {
		case p < 45 && len(unmapped) > 0:
			dec, err = svc.Admit(unmapped[r.Intn(len(unmapped))])
		case p < 65 && len(mapped) > 0:
			dec, err = svc.Remove(mapped[r.Intn(len(mapped))])
		case p < 90:
			dec, err = svc.Rescale(r.Intn(st.Strings), 0.6+0.9*r.Float64())
		default:
			res := faults.Machine(r.Intn(st.Machines))
			req := service.FaultsRequest{Repair: []faults.Resource{res}}
			if r.Intn(2) == 0 {
				req = service.FaultsRequest{Fail: []faults.Resource{res}}
			}
			dec, err = svc.Faults(req)
		}
		if err != nil {
			return "", fmt.Errorf("soak: journal stage op %d: %w", i, err)
		}
		d.add(dec.Seq, dec.Op, dec.Accepted, dec.StringID)
		d.addFloats(dec.WorthAfter, dec.Slackness)
	}

	live, err := svc.State()
	if err != nil {
		return "", fmt.Errorf("soak: journal stage: %w", err)
	}
	svc.Close()
	closed = true

	rec, rep, err := service.Recover(jp, service.Config{})
	if err != nil {
		return "", fmt.Errorf("soak: journal stage: recover: %w", err)
	}
	defer rec.Close()
	if rep.Torn {
		return "", fmt.Errorf("soak: journal stage: clean shutdown left a torn tail (%d bytes)", rep.TornBytes)
	}
	rst, err := rec.State()
	if err != nil {
		return "", fmt.Errorf("soak: journal stage: recovered state: %w", err)
	}
	if rst.Seq != live.Seq || rst.Digest != live.Digest {
		return "", fmt.Errorf(
			"soak: journal stage: recovery diverged: live seq %d digest %s, recovered seq %d digest %s",
			live.Seq, live.Digest, rst.Seq, rst.Digest)
	}
	d.add(rep.SnapshotSeq, rep.Replayed, rep.Skipped)
	d.add(rst.Seq, rst.Digest)
	return d.sum(), nil
}
