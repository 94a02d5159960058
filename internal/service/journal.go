// Write-ahead op journal: every mutation the daemon decides, accepted or
// rejected (admit, remove, rescale, faults, surge — anything that advances
// the decision sequence), is appended to a crash-safe journal before the
// reply goes out, so a killed daemon restarted with Recover replays exactly
// the acknowledged history and lands on a bit-identical allocation.
//
// The durability contract, layer by layer:
//
//   - internal/journal owns framing: length-prefixed CRC32C records, torn
//     tails cleanly discarded, mid-log corruption a typed hard error.
//   - This file owns semantics: each record carries the op name, the request
//     in its wire form (for admit, remove and rescale appended from the typed
//     request the state applied, byte for byte what json.Marshal wrote there
//     before the codec in wire.go), the decision seq, whether it was accepted,
//     and a running O(1) chain check over the decision outcomes. Every
//     DigestEvery records the full feasibility.StateDigest is embedded too, so
//     replay divergence is caught within a bounded window without paying the
//     O(state) digest on every append.
//   - Replay applies the mutation the journaled payload parses back to,
//     trusting the journaled verdict (replayOp): the loop runs with no
//     analyzer attached. A journaled acceptance of an admit, remove or
//     rescale runs the live op's envelope check, placement and bookkeeping,
//     but not the two-stage judgement; a journaled rejection of an admit or
//     rescale, which live serving rolled back bit-identically, is folded into
//     the chain from the unchanged state without placing anything. Faults and
//     surge records go through the live applyOp. The chain check fails loudly
//     if an outcome differs in any bit the decision exposes, and the embedded
//     digests bound state drift. So a binary that would now decide a
//     journaled op the other way recovers without noticing (a wrongly
//     trusted acceptance then reads "feasible":false in GET /v1/state); the
//     test oracle that re-decides every record is where that is checked.
//
// Compaction: every CompactEvery appended records the daemon writes an atomic
// sidecar snapshot (<journal>.snap.json), truncates the journal, and writes a
// fresh header. The sidecar is a state file — allocation, scale vector,
// outages, seq, digest, chain — and pins the catalog file written beside it
// once, at bootstrap (see snapshot.go), so a compaction costs kilobytes
// whatever the size of the ship. The invariant is that snapshot state +
// journal tail replay always reproduces the live state; records with seq at
// or below the snapshot seq are skipped on replay, which also covers a crash
// landing between the compaction snapshot and the truncate.
//
// Failure policy: if an append fails (disk full, journal file yanked), the
// mutation's reply is an error, the daemon marks the journal broken, and all
// further mutations fail fast with CodeInternal while reads keep serving and
// GET /v1/healthz reports the failure. The op whose append failed is
// indeterminate to the client — exactly the contract of any write-ahead
// system — and the operator decides whether to snapshot-and-restart.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"time"

	"repro/internal/feasibility"
	"repro/internal/journal"
	"repro/internal/overload"
	"repro/internal/telemetry"
)

// Op names as journaled; the header record marks a journal (re)start.
const (
	opAdmit   = "admit"
	opRemove  = "remove"
	opRescale = "rescale"
	opFaults  = "faults"
	opSurge   = "surge"
	opHeader  = "header"
)

// opRecord is one journal record: the wire payload of a decided mutation
// plus enough verification state to catch replay divergence.
type opRecord struct {
	V   int    `json:"v"`
	Seq uint64 `json:"seq"`
	Op  string `json:"op"`
	// Payload is the exact wire-shaped request body the op was applied with.
	Payload json.RawMessage `json:"payload,omitempty"`
	// Accepted mirrors the Decision outcome; rejected decisions advance the
	// sequence number too and are journaled so replay reproduces the full
	// event history.
	Accepted bool `json:"accepted"`
	// Check is the running chain value after folding in this op's decision.
	Check string `json:"check"`
	// StateDigest is the full allocation digest, embedded every DigestEvery
	// records (empty otherwise).
	StateDigest string `json:"stateDigest,omitempty"`
}

// chainNext folds one decision into the running chain check: an O(1)
// hash over the fields that pin the decision's observable outcome. Replay
// recomputes the chain and compares against the journaled value per record.
// The preimage is "prev|seq|op|accepted|stringId|worthAfter|slackness|mapped|"
// with the two floats as 16 hex digits of their IEEE-754 bits.
func chainNext(prev string, d *Decision) string {
	var scratch [128]byte // a preimage is about 90 bytes
	b := append(scratch[:0], prev...)
	b = strconv.AppendUint(append(b, '|'), d.Seq, 10)
	b = append(append(b, '|'), d.Op...)
	b = strconv.AppendBool(append(b, '|'), d.Accepted)
	b = strconv.AppendInt(append(b, '|'), int64(d.StringID), 10)
	for _, f := range [...]float64{d.WorthAfter, d.Slackness} {
		b = append(b, '|')
		for bits, shift := math.Float64bits(f), 60; shift >= 0; shift -= 4 {
			b = append(b, hexDigits[bits>>uint(shift)&0xf])
		}
	}
	b = strconv.AppendInt(append(b, '|'), int64(d.Mapped), 10)
	sum := sha256.Sum256(append(b, '|'))
	var check [16]byte
	hex.Encode(check[:], sum[:8])
	return string(check[:])
}

// JournalSnapshotPath is the compaction-snapshot sidecar of a journal file.
func JournalSnapshotPath(journalPath string) string {
	return journalPath + ".snap.json"
}

// ReplayError reports a journal whose records decode but whose replay
// diverges from the journaled outcomes: a seq gap, a decision that came out
// differently, a chain or digest mismatch. It means the journal and the
// snapshot (or the binary) disagree — unlike a torn tail, this is never
// repaired silently.
type ReplayError struct {
	Path   string // journal file
	Index  int    // record index within the scan
	Seq    uint64 // journaled sequence number (0 if undecodable)
	Op     string // journaled op (empty if undecodable)
	Reason string
}

func (e *ReplayError) Error() string {
	return fmt.Sprintf("service: journal %s record %d (seq %d, op %q): %s",
		e.Path, e.Index, e.Seq, e.Op, e.Reason)
}

// RecoveryReport summarizes a Recover run for logs and banners.
type RecoveryReport struct {
	// SnapshotSeq and SnapshotDigest identify the sidecar snapshot the replay
	// started from.
	SnapshotSeq    uint64 `json:"snapshotSeq"`
	SnapshotDigest string `json:"snapshotDigest"`
	// Replayed counts records applied; Skipped counts records at or below the
	// snapshot seq (present only after a crash between compaction snapshot
	// and truncate). Rejected counts the replayed rejections of an admit or a
	// rescale, folded in without being re-decided (see replayOp); they are in
	// Replayed too.
	Replayed int `json:"replayed"`
	Skipped  int `json:"skipped"`
	Rejected int `json:"rejected"`
	// Torn reports a discarded torn tail of TornBytes bytes — expected debris
	// after a crash mid-append, not an error.
	Torn      bool  `json:"torn"`
	TornBytes int64 `json:"tornBytes"`
	// FinalSeq and Digest describe the recovered state.
	FinalSeq uint64 `json:"finalSeq"`
	Digest   string `json:"digest"`
	// CatalogLoad (read, hash, parse and validate the pinned catalog) and
	// Replay (the record loop) are wall times, for the startup banner and the
	// service.recover.{catalog_load_s,replay_s} gauges.
	CatalogLoad time.Duration `json:"catalogLoadNs"`
	Replay      time.Duration `json:"replayNs"`
}

// journaledMutation is the one place an op's wire form becomes the typed
// mutation the state applies: on replay, from the journaled payload, and live
// for faults and surge, from the json.Marshal of the request (mutateEncoded)
// — so the live daemon applies exactly what a replay of its journal will.
func journaledMutation(op string, payload []byte) (m mutation, err error) {
	m = mutation{op: op, payload: payload}
	switch op {
	case opAdmit, opRemove, opRescale:
		m.k, m.factor, err = parseStringOp(payload, op == opRescale)
	case opFaults:
		m.faults, err = parseFaults(payload)
	case opSurge:
		m.surge, err = overload.Parse(payload)
	}
	if err != nil {
		return m, fmt.Errorf("decode %s payload: %v", op, err)
	}
	return m, nil
}

// applyOp dispatches one mutation: the entry point of every live mutation,
// and of every replayed faults or surge record (replayOp), which is what
// guarantees those replay the live path's state decision for decision.
func (st *state) applyOp(m *mutation) (Decision, *ErrorEnvelope) {
	switch m.op {
	case opAdmit:
		return st.admit(m.k)
	case opRemove:
		return st.remove(m.k)
	case opRescale:
		return st.rescale(m.k, m.factor)
	case opFaults:
		return st.applyFaults(&m.faults)
	case opSurge:
		return st.applySurge(m.surge)
	}
	return Decision{}, Errorf(CodeBadRequest, nil, "unknown op %q", m.op)
}

// replayedRejection is the reason of a rejection replayOp folds in; the
// journal does not record the reason it was first decided with.
const replayedRejection = "rejected before the restart; replayed from the journal without re-deciding"

// unplaceableAcceptance is the reason replayOp rejects a journaled acceptance
// with when this binary's IMR finds no placement for it; Recover then fails
// on the accepted bit.
const unplaceableAcceptance = "accepted before the restart; this binary finds no placement on replay"

// replayOp is applyOp for a journaled record that says whether the op was
// accepted, run with no analyzer attached: an admit, remove or rescale is
// re-placed or folded in on the journal's verdict instead of being judged
// again. Each runs the live op's envelope check, then
//
//   - a rejected admit or rescale, which live serving rolled back
//     bit-identically, is folded in from the state as it stands: the
//     decision decide builds with the worth unchanged, no placement;
//   - an accepted one is placed (a rescale first lifts the string and
//     recomputes its floats) and booked as the live op books it after
//     Commit, with neither FeasibleAfterDelta nor Commit; its scans run
//     along the scan order stateFromSnapshot attached, as the live op's do;
//   - a remove, which live serving never rejects, is lifted and decided.
//
// A rejected rescale of an unmapped string, which live serving accepts
// whatever the load, and a rejected remove are replayed as accepted, and an
// acceptance this binary cannot place comes back rejected: the caller fails
// on the accepted bit. Otherwise it checks the chain, which covers every
// field of the decision, and the embedded digests. Faults and surge records
// go through applyOp.
func (st *state) replayOp(m *mutation, accepted bool) (Decision, *ErrorEnvelope) {
	switch m.op {
	case opAdmit:
		if e := st.admitEnvelope(m.k); e != nil {
			return Decision{}, e
		}
		switch {
		case !accepted:
			return st.decide(opAdmit, m.k, st.worth, replayedRejection, nil), nil
		case !st.place(m.k):
			return st.decide(opAdmit, m.k, st.worth, unplaceableAcceptance, nil), nil
		}
		return st.admitted(m.k), nil
	case opRemove:
		worthBefore, e := st.lift(m.k)
		if e != nil {
			return Decision{}, e
		}
		return st.decide(opRemove, m.k, worthBefore, "", nil), nil
	case opRescale:
		scaled, e := st.rescaleEnvelope(m.k, m.factor)
		switch {
		case e != nil:
			return Decision{}, e
		case !st.alloc.Complete(m.k):
			st.setScale(m.k, scaled)
		case !accepted:
			return st.decide(opRescale, m.k, st.worth, replayedRejection, nil), nil
		case !st.replace(m.k, scaled):
			return st.decide(opRescale, m.k, st.worth, unplaceableAcceptance, nil), nil
		}
		return st.rescaled(m.k, scaled), nil
	}
	return st.applyOp(m)
}

// mutateOp runs one mutation under the state mutex: apply, then journal before
// the reply. Envelope errors (conflict, unknown string, bad request) never
// advance the sequence number and are not journaled; every Decision —
// accepted or rejected — is.
func (st *state) mutateOp(m *mutation) (Decision, *ErrorEnvelope) {
	if st.broken != nil {
		return Decision{}, Errorf(CodeInternal, nil,
			"journal is broken, daemon refuses mutations: %v", st.broken)
	}
	d, e := st.applyOp(m)
	if e != nil {
		return Decision{}, e
	}
	if st.jw != nil {
		if err := st.journalAppend(m, &d); err != nil {
			st.broken = err
			if st.onBroken != nil {
				st.onBroken(err)
			}
			telemetry.C("service.journal.broken").Inc()
			return Decision{}, Errorf(CodeInternal, nil, "journal append: %v", err)
		}
	}
	return d, nil
}

// journalAppend records one decided op, advancing the chain check and
// triggering periodic state digests and compaction. The record is encoded
// into the state's own buffers, which is safe to reuse because
// journal.Writer.Append copies the record into its frame.
func (st *state) journalAppend(m *mutation, d *Decision) error {
	st.chain = chainNext(st.chain, d)
	rec := opRecord{
		V:        SchemaVersion,
		Seq:      d.Seq,
		Op:       m.op,
		Payload:  m.payload,
		Accepted: d.Accepted,
		Check:    st.chain,
	}
	if rec.Payload == nil {
		st.payloadBuf.reset()
		st.payloadBuf.stringOp(m.k, m.factor, m.op == opRescale)
		if st.payloadBuf.err != nil {
			return fmt.Errorf("encode %s payload: %w", m.op, st.payloadBuf.err)
		}
		rec.Payload = st.payloadBuf.b
	}
	st.sinceDigest++
	if st.cfg.DigestEvery > 0 && st.sinceDigest >= st.cfg.DigestEvery {
		rec.StateDigest = st.digest()
		st.sinceDigest = 0
	}
	st.recordBuf.reset()
	st.recordBuf.opRecord(&rec)
	start := time.Now()
	if _, err := st.jw.Append(st.recordBuf.b); err != nil {
		return err
	}
	telemetry.C("service.journal.appends").Inc()
	telemetry.C("service.journal.append_bytes").Add(int64(len(st.recordBuf.b)))
	telemetry.H("service.journal.append_ns").Observe(float64(time.Since(start)))
	st.sinceCompact++
	if st.cfg.CompactEvery > 0 && st.sinceCompact >= st.cfg.CompactEvery {
		return st.compact()
	}
	return nil
}

// compact folds the journal into its sidecar snapshot: durable snapshot
// first, then truncate, then a fresh header. A crash at any point recovers —
// before the snapshot rename the old snapshot + full journal replays, after
// it the new snapshot simply skips every journaled seq.
func (st *state) compact() error {
	start := time.Now()
	if _, e := st.snapshotTo(JournalSnapshotPath(st.jw.Path())); e != nil {
		return fmt.Errorf("compaction snapshot: %w", e)
	}
	if err := st.jw.Reset(); err != nil {
		return fmt.Errorf("compaction truncate: %w", err)
	}
	if err := st.appendHeader(); err != nil {
		return err
	}
	st.sinceCompact = 0
	telemetry.C("service.journal.compactions").Inc()
	telemetry.H("service.journal.compact_ns").Observe(float64(time.Since(start)))
	return nil
}

// appendHeader writes and syncs the journal header record carrying the schema
// version, current seq, and chain value, so a binary fed another schema
// version's journal fails with SchemaVersionError before replaying anything.
func (st *state) appendHeader() error {
	st.recordBuf.reset()
	st.recordBuf.opRecord(&opRecord{V: SchemaVersion, Seq: st.seq, Op: opHeader, Check: st.chain})
	if _, err := st.jw.Append(st.recordBuf.b); err != nil {
		return fmt.Errorf("append header record: %w", err)
	}
	return st.jw.Sync()
}

// journalOptions builds the writer options from the service config.
func (st *state) journalOptions() journal.Options {
	return journal.Options{
		Fsync:      st.cfg.Fsync,
		OnFsync:    func() { telemetry.C("service.journal.fsyncs").Inc() },
		CrashAfter: st.cfg.JournalCrashAfter,
	}
}

// bootstrapJournal starts journaling on a fresh (or cleanly absent) journal
// file: catalog and base snapshot first, then the journal with its header. A
// non-empty existing journal is refused — that history belongs to Recover, and
// silently appending over it (or ignoring it) would forge the acknowledged
// record.
func (st *state) bootstrapJournal() error {
	path := st.cfg.Journal
	if info, err := os.Stat(path); err == nil && info.Size() > 0 {
		return fmt.Errorf("service: journal %s already exists (%d bytes); recover with Recover or move it aside",
			path, info.Size())
	}
	// Snapshot before journal creation: a crash between the two leaves a
	// snapshot with no journal, which Recover handles as zero replayed records
	// (and a crash before the snapshot leaves at most a catalog file, which a
	// fresh start finds in place).
	if _, e := st.snapshotTo(JournalSnapshotPath(path)); e != nil {
		return fmt.Errorf("service: journal base snapshot: %w", e)
	}
	w, _, err := journal.Open(path, st.journalOptions())
	if err != nil {
		return fmt.Errorf("service: open journal: %w", err)
	}
	st.jw = w
	if err := st.appendHeader(); err != nil {
		w.Close()
		st.jw = nil
		return fmt.Errorf("service: journal header: %w", err)
	}
	return nil
}

// Recover rebuilds a Service from a journal and its sidecar snapshot: restore
// the snapshot, replay the journal tail on the journaled verdicts with no
// analyzer attached (an accepted admit, remove or rescale re-placed and a
// rejected one folded in, neither judged again; see replayOp), and verify
// every record's chain check (plus the periodic full state digests) along the
// way. The analyzer is attached once, after the loop; the scan order over the
// pinned catalog is built and attached once, before it.
//
// A torn tail — the debris of a crash mid-append — is truncated and reported
// in the RecoveryReport. Mid-log corruption surfaces as *journal.CorruptError,
// replay divergence as *ReplayError, and a journal record (the header
// included) of any other schema version, older or newer, as
// *SchemaVersionError before it is replayed; none of the three are repaired
// silently.
//
// As with Restore, cfg.System is optional — nil serves the catalog the
// snapshot pins, anything else must encode to the pinned sha256 — and the
// serving knobs come from cfg; they must match the crashed daemon's for ops
// like surge to replay identically.
func Recover(journalPath string, cfg Config) (*Service, *RecoveryReport, error) {
	cfg.Journal = journalPath
	snapPath := JournalSnapshotPath(journalPath)
	file, err := loadSnapshotFile(snapPath)
	if err != nil {
		return nil, nil, fmt.Errorf("service: recover: %w", err)
	}
	st, err := stateFromSnapshot(snapPath, file, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("service: recover: %w", err)
	}
	st.chain = file.Chain
	// Replay books into the worth mirrors as the live ops do. It runs with no
	// analyzer attached (replayOp); startService attaches one after the loop,
	// the one Rebase a restart pays.
	st.recount()
	w, scan, err := journal.Open(journalPath, st.journalOptions())
	if err != nil {
		return nil, nil, fmt.Errorf("service: recover: %w", err)
	}
	st.jw = w
	rep := &RecoveryReport{
		SnapshotSeq:    file.Seq,
		SnapshotDigest: file.Digest,
		Torn:           scan.Torn,
		TornBytes:      scan.TornBytes,
		CatalogLoad:    st.catalogLoad,
	}
	fail := func(i int, seq uint64, op, reason string) (*Service, *RecoveryReport, error) {
		w.Close()
		return nil, nil, &ReplayError{Path: journalPath, Index: i, Seq: seq, Op: op, Reason: reason}
	}
	sinceDigest := 0
	replayStart := time.Now()
	for i, raw := range scan.Payloads {
		rec, err := decodeOpRecord(raw)
		if err != nil {
			return fail(i, 0, "", fmt.Sprintf("undecodable record: %v", err))
		}
		if rec.V != SchemaVersion {
			w.Close()
			return nil, nil, fmt.Errorf("service: journal %s record %d: %w", journalPath, i,
				&SchemaVersionError{Version: rec.V, Supported: SchemaVersion})
		}
		if rec.Op == opHeader {
			continue
		}
		sinceDigest++
		if rec.StateDigest != "" {
			sinceDigest = 0
		}
		if rec.Seq <= file.Seq {
			// Already folded into the snapshot (crash between compaction
			// snapshot and truncate leaves such a prefix).
			rep.Skipped++
			continue
		}
		if rec.Seq != st.seq+1 {
			return fail(i, rec.Seq, rec.Op, fmt.Sprintf("sequence gap: journal at seq %d, state at seq %d", rec.Seq, st.seq))
		}
		m, err := journaledMutation(rec.Op, rec.Payload)
		if err != nil {
			return fail(i, rec.Seq, rec.Op, err.Error())
		}
		d, e := st.replayOp(&m, rec.Accepted)
		if e != nil {
			return fail(i, rec.Seq, rec.Op, fmt.Sprintf("journaled op failed on replay: %v", e))
		}
		if d.Accepted != rec.Accepted {
			return fail(i, rec.Seq, rec.Op, fmt.Sprintf("decision diverged: replay accepted=%v, journal accepted=%v", d.Accepted, rec.Accepted))
		}
		st.chain = chainNext(st.chain, &d)
		if st.chain != rec.Check {
			return fail(i, rec.Seq, rec.Op, "running chain check diverged from journaled value")
		}
		if rec.StateDigest != "" {
			if got := feasibility.StateDigest(st.alloc); got != rec.StateDigest {
				return fail(i, rec.Seq, rec.Op, fmt.Sprintf("state digest diverged: replay %s, journal %s", got, rec.StateDigest))
			}
		}
		rep.Replayed++
		if !rec.Accepted && (rec.Op == opAdmit || rec.Op == opRescale) {
			rep.Rejected++
		}
	}
	rep.Replay = time.Since(replayStart)
	// The cadence counters resume where the crashed daemon left them, as far
	// as the journal shows: every record after the header counts toward the
	// next compaction, and those after the last embedded digest toward the
	// next digest.
	st.sinceCompact = rep.Replayed + rep.Skipped
	st.sinceDigest = sinceDigest
	// A journal truncated right before the header (or torn down to empty)
	// needs its header back before new ops ride on it.
	if w.Size() == 0 {
		if err := st.appendHeader(); err != nil {
			w.Close()
			return nil, nil, fmt.Errorf("service: recover: %w", err)
		}
	}
	rep.FinalSeq = st.seq
	rep.Digest = st.digest()
	telemetry.C("service.journal.replayed").Add(int64(rep.Replayed))
	telemetry.C("service.journal.replayed_rejections").Add(int64(rep.Rejected))
	telemetry.C("service.journal.torn_bytes").Add(rep.TornBytes)
	telemetry.G("service.recover.catalog_load_s").Set(rep.CatalogLoad.Seconds())
	telemetry.G("service.recover.replay_s").Set(rep.Replay.Seconds())
	svc, err := startService(st)
	if err != nil {
		w.Close()
		return nil, nil, err
	}
	return svc, rep, nil
}
