package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/feasibility"
	"repro/internal/journal"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

var paperRecords = flag.Int("service.paper-records", 3000,
	"records in TestReplayTrustsPaperRejections's `paper` journal (CI runs 20 000 nightly)")

// redecide is the oracle for Recover's trust in the journal's verdicts. It
// restores the sidecar, attaches the analyzer, and sends every record through
// applyOp, so every admit, remove and rescale is judged again, and requires
// after each record the journaled accepted bit, chain value and embedded
// digest, and after each rejected admit or rescale an allocation whose
// whole-text digest did not move. It returns how many such rejections it
// re-decided and the digest it ends on.
func redecide(t *testing.T, journalPath string, cfg Config) (rejected int, digest string, err error) {
	t.Helper()
	snapPath := JournalSnapshotPath(journalPath)
	file, err := loadSnapshotFile(snapPath)
	if err != nil {
		return 0, "", err
	}
	st, err := stateFromSnapshot(snapPath, file, cfg)
	if err != nil {
		return 0, "", err
	}
	st.chain = file.Chain
	st.da = feasibility.Track(st.alloc)
	st.recount()
	scan, err := journal.Scan(journalPath)
	if err != nil {
		return 0, "", err
	}
	for i, raw := range scan.Payloads {
		rec, err := decodeOpRecord(raw)
		if err != nil {
			return 0, "", fmt.Errorf("record %d: %v", i, err)
		}
		if rec.Op == opHeader || rec.Seq <= file.Seq {
			continue
		}
		m, err := journaledMutation(rec.Op, rec.Payload)
		if err != nil {
			return 0, "", fmt.Errorf("record %d: %v", i, err)
		}
		folded := !rec.Accepted && (rec.Op == opAdmit || rec.Op == opRescale)
		var before string
		if folded {
			before = uncachedDigest(t, st.alloc)
		}
		d, e := st.applyOp(&m)
		if e != nil {
			return 0, "", fmt.Errorf("record %d (seq %d, %s): %v", i, rec.Seq, rec.Op, e)
		}
		if d.Accepted != rec.Accepted {
			return 0, "", fmt.Errorf("record %d (seq %d, %s): re-decided accepted=%v, journal accepted=%v",
				i, rec.Seq, rec.Op, d.Accepted, rec.Accepted)
		}
		if st.chain = chainNext(st.chain, &d); st.chain != rec.Check {
			return 0, "", fmt.Errorf("record %d (seq %d, %s): chain %s, journal %s", i, rec.Seq, rec.Op, st.chain, rec.Check)
		}
		if rec.StateDigest != "" && st.digest() != rec.StateDigest {
			return 0, "", fmt.Errorf("record %d (seq %d, %s): digest %s, journal %s", i, rec.Seq, rec.Op, st.digest(), rec.StateDigest)
		}
		if folded {
			rejected++
			if after := uncachedDigest(t, st.alloc); after != before {
				return 0, "", fmt.Errorf("record %d (seq %d, %s): the rejection moved the state from %s to %s",
					i, rec.Seq, rec.Op, before, after)
			}
		}
	}
	return rejected, st.digest(), nil
}

// checkReplays recovers the journal at path and re-decides it with the
// oracle, and requires both to land on the seq and digest of live, the live
// daemon's GET /v1/state body, with the same number of rejections, and the
// recovered daemon's GET /v1/state to read live byte for byte — its
// committed verdict ("feasible") included, which the analyzer attached after
// replay computes afresh. It returns the recovered service.
func checkReplays(t *testing.T, path string, cfg Config, live []byte) (*Service, *RecoveryReport) {
	t.Helper()
	want := decodeState(t, live)
	rejected, digest, err := redecide(t, path, cfg)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if digest != want.Digest {
		t.Fatalf("oracle ends on digest %s, want %s", digest, want.Digest)
	}
	svc, rep, err := Recover(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	if rep.FinalSeq != want.Seq || rep.Digest != want.Digest || rep.Rejected != rejected {
		t.Fatalf("recovered to seq %d digest %s with %d rejections trusted; want seq %d digest %s, %d re-decided",
			rep.FinalSeq, rep.Digest, rep.Rejected, want.Seq, want.Digest, rejected)
	}
	if got := requireStateRead(t, svc, "recovered"); !bytes.Equal(got, live) {
		t.Fatalf("recovered GET /v1/state\n got %s\nwant %s", got, live)
	}
	return svc, rep
}

// On shipbench's `paper` stream the oracle re-decides every trusted verdict
// to the journaled outcome, Recover lands where the live daemon stood,
// counting every record in Replayed and the rejections in Rejected too, and
// GET /v1/events then shows each replayed rejection under its seq and string
// with the documented reason and no violations. -service.paper-records sizes
// the journal.
func TestReplayTrustsPaperRejections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "paper.wal")
	decisions, live := paperJournal(t, path, *paperRecords)
	rejections := 0
	for _, d := range decisions {
		if !d.Accepted {
			rejections++
		}
	}
	if rejections < len(decisions)/4 {
		t.Fatalf("%d of %d decisions rejected: too few to exercise the fold", rejections, len(decisions))
	}
	svc, rep := checkReplays(t, path, Config{}, live)
	if rep.Replayed != len(decisions) || rep.Rejected != rejections {
		t.Fatalf("report: %d replayed, %d rejected; want %d and %d", rep.Replayed, rep.Rejected, len(decisions), rejections)
	}

	rr := serve(svc.Handler(), "GET", "/v1/events", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("events: status %d", rr.Code)
	}
	sc := bufio.NewScanner(rr.Body)
	lines, folded := 0, 0
	for ; sc.Scan(); lines++ {
		var got Decision
		if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		live := decisions[got.Seq-1]
		if got.Seq != live.Seq || got.Op != live.Op || got.StringID != live.StringID || got.Accepted != live.Accepted {
			t.Fatalf("event %+v, live decision %+v", got, live)
		}
		if !got.Accepted {
			folded++
			if got.Reason != replayedRejection || got.Violations != nil {
				t.Fatalf("replayed rejection %+v: want reason %q and no violations", got, replayedRejection)
			}
		}
	}
	if lines != eventRing || folded == 0 {
		t.Fatalf("events: %d lines, %d rejections; want the last %d decisions, some rejected", lines, folded, eventRing)
	}
}

// The oracle also holds on the lockstep test's `paper` model stream,
// journaled: conflicts (not journaled), catalog-only rescales and rejections
// of both kinds.
func TestReplayTrustsModelStreamRejections(t *testing.T) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 17)
	path := filepath.Join(t.TempDir(), "model.wal")
	svc, err := New(Config{System: sys, Journal: path, Fsync: journal.FsyncNone, DigestEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.NewRand(17, "service/model", 0)
	admits, rescales := 0, 0
	for step := 0; step < 600; step++ {
		op, k, factor := modelOp(r, len(sys.Strings))
		if d, err := applyModelOp(svc, op, k, factor); err == nil && !d.Accepted {
			if op == opAdmit {
				admits++
			} else {
				rescales++
			}
		}
	}
	if admits == 0 || rescales == 0 {
		t.Fatalf("%d rejected admits, %d rejected rescales: the stream must reject both", admits, rescales)
	}
	live := requireStateRead(t, svc, "model stream")
	svc.Close()
	_, rep := checkReplays(t, path, Config{DigestEvery: 16}, live)
	if rep.Rejected != admits+rescales {
		t.Fatalf("%d rejections trusted, want %d", rep.Rejected, admits+rescales)
	}
}

// forgeRecord appends to the closed journal at path a record of op on the
// payload, decided as d, at the chain value after it, as a daemon that
// decided d would have journaled it.
func forgeRecord(t *testing.T, path, op, payload string, d *Decision, prevChain string) {
	t.Helper()
	w, _, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := json.Marshal(&opRecord{V: SchemaVersion, Seq: d.Seq, Op: op, Payload: json.RawMessage(payload),
		Accepted: d.Accepted, Check: chainNext(prevChain, d)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// What the fold gives up, pinned: a journaled rejection this binary would
// accept, chained as the fold reads it, recovers — and the oracle is what
// fails on it.
func TestOracleCatchesARejectionThisBinaryWouldAccept(t *testing.T) {
	svc, path := journaledService(t, 4, Config{})
	mustAdmit(t, svc, 0)
	var d Decision
	var prev string
	if err := svc.exec(func(st *state) {
		prev = st.chain
		d = st.decide(opAdmit, 1, st.worth, replayedRejection, nil)
	}); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	forgeRecord(t, path, opAdmit, `{"stringId":1}`, &d, prev)

	rec, rep, err := Recover(path, Config{})
	if err != nil {
		t.Fatalf("recover the forged rejection: %v", err)
	}
	rec.Close()
	if rep.Replayed != 2 || rep.Rejected != 1 {
		t.Fatalf("report %+v, want 2 replayed, 1 rejection trusted", rep)
	}
	if _, _, err := redecide(t, path, Config{}); err == nil || !strings.Contains(err.Error(), "re-decided accepted=true, journal accepted=false") {
		t.Fatalf("oracle on the forged rejection: %v, want the accepted bits to differ", err)
	}
}

// What trusting an acceptance gives up, pinned: an admit this binary rejects
// for QoS, journaled as accepted and chained as replay reads it, recovers to
// a state whose committed verdict reads infeasible — and the oracle is what
// fails on it.
func TestOracleCatchesAnAcceptanceThisBinaryWouldReject(t *testing.T) {
	path := filepath.Join(t.TempDir(), "paper.wal")
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 1)
	svc, err := New(Config{System: sys, Journal: path, Fsync: journal.FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	k, rejections := -1, 0
	for j := 0; j < len(sys.Strings) && k < 0; j++ {
		d, err := svc.Admit(j)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Accepted {
			rejections++
			if len(d.Violations) > 0 {
				k = j
			}
		}
	}
	if k < 0 {
		t.Fatal("the paper ship rejected no admit for QoS")
	}
	var d Decision
	var prev string
	if err := svc.exec(func(st *state) {
		prev = st.chain
		if !st.place(k) || st.da.FeasibleAfterDelta() {
			t.Errorf("string %d placed feasibly on the second try", k)
		}
		st.da.Commit()
		d = st.admitted(k)
	}); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	forgeRecord(t, path, opAdmit, fmt.Sprintf(`{"stringId":%d}`, k), &d, prev)

	rec, rep, err := Recover(path, Config{})
	if err != nil {
		t.Fatalf("recover the forged acceptance: %v", err)
	}
	defer rec.Close()
	if rep.FinalSeq != d.Seq || rep.Rejected != rejections {
		t.Fatalf("report %+v, want seq %d with %d rejections trusted", rep, d.Seq, rejections)
	}
	if got := decodeState(t, requireStateRead(t, rec, "recovered")); got.Feasible || got.MappedCount != d.Mapped {
		t.Fatalf("recovered state reads feasible=%v with %d mapped, want infeasible with %d", got.Feasible, got.MappedCount, d.Mapped)
	}
	if _, _, err := redecide(t, path, Config{}); err == nil || !strings.Contains(err.Error(), "re-decided accepted=false, journal accepted=true") {
		t.Fatalf("oracle on the forged acceptance: %v, want the accepted bits to differ", err)
	}
}

// An acceptance this binary cannot place is not trusted: with every machine
// down the IMR finds no placement, replay yields the rejection, and Recover
// fails on the accepted bit.
func TestRecoverRefusesAnUnplaceableAcceptance(t *testing.T) {
	svc, path := journaledService(t, 4, Config{})
	mustAdmit(t, svc, 0)
	var down FaultsRequest
	for j := 0; j < 4; j++ {
		down.Fail = append(down.Fail, faults.Machine(j))
	}
	d, err := svc.Faults(down)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	forgeRecord(t, path, opAdmit, `{"stringId":1}`, &Decision{Seq: d.Seq + 1, Op: opAdmit, Accepted: true, StringID: 1}, "")
	_, _, err = Recover(path, Config{})
	var re *ReplayError
	if !errors.As(err, &re) || !strings.Contains(re.Reason, "decision diverged: replay accepted=false, journal accepted=true") {
		t.Fatalf("error = %v, want a *ReplayError on the accepted bit", err)
	}
}

// Replay judges nothing: over the `paper` stream a restart runs no delta
// evaluation and one rebase, startService's attach after the loop. A faults
// record adds one, the analyzer dynamic.Survive attaches to the untracked
// allocation; live, Survive reused the daemon's.
func TestReplayRunsNoEvaluation(t *testing.T) {
	recoverCounts := func(path string) (evals, rebases int64) {
		t.Helper()
		prev := telemetry.Active()
		reg := telemetry.Enable()
		rec, _, err := Recover(path, Config{})
		telemetry.EnableRegistry(prev)
		if err != nil {
			t.Fatal(err)
		}
		rec.Close()
		return reg.Counter("feasibility.delta.evals").Value(), reg.Counter("feasibility.delta.rebases").Value()
	}
	path := filepath.Join(t.TempDir(), "paper.wal")
	decisions, _ := paperJournal(t, path, 600)
	accepted := 0
	for _, d := range decisions {
		if d.Accepted {
			accepted++
		}
	}
	if evals, rebases := recoverCounts(path); evals != 0 || rebases != 1 || accepted == 0 {
		t.Fatalf("replaying %d accepted records ran %d evaluations and %d rebases, want 0 and 1", accepted, evals, rebases)
	}

	svc, path := journaledService(t, 6, Config{})
	for k := 0; k < 4; k++ {
		mustAdmit(t, svc, k)
	}
	for _, req := range []FaultsRequest{{Fail: []faults.Resource{faults.Machine(1)}}, {Repair: []faults.Resource{faults.Machine(1)}}} {
		if _, err := svc.Faults(req); err != nil {
			t.Fatal(err)
		}
	}
	mustAdmit(t, svc, 4)
	svc.Close()
	if _, rebases := recoverCounts(path); rebases != 3 {
		t.Fatalf("replaying two faults records ran %d rebases, want 3", rebases)
	}
}

// The fold runs the op's envelope checks and the chain still covers it: a
// rejection of an admit this binary would refuse as a conflict, a rejection
// of a rescale it always accepts, and an accepted record flipped to read
// rejected each fail recovery with a *ReplayError. (The first two fail before
// the chain is read, so their forged chain value does not matter.)
func TestRecoverRefusesForgedRejections(t *testing.T) {
	rejected := func(op string, k int) *Decision { return &Decision{Seq: 2, Op: op, StringID: k} }
	for _, tc := range []struct {
		name   string
		forge  func(t *testing.T, path string)
		reason string
	}{
		{"admit of a mapped string", func(t *testing.T, path string) {
			forgeRecord(t, path, opAdmit, `{"stringId":0}`, rejected(opAdmit, 0), "")
		}, "string 0 is already mapped"},
		{"rescale of an unmapped string", func(t *testing.T, path string) {
			forgeRecord(t, path, opRescale, `{"stringId":1,"factor":2}`, rejected(opRescale, 1), "")
		}, "decision diverged: replay accepted=true, journal accepted=false"},
		{"accepted bit flipped", func(t *testing.T, path string) {
			scan, err := journal.Scan(path)
			if err != nil {
				t.Fatal(err)
			}
			flipped := bytes.Replace(scan.Payloads[1], []byte(`"accepted":true`), []byte(`"accepted":false`), 1)
			w, _, err := journal.Open(filepath.Join(t.TempDir(), "flipped.wal"), journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range [][]byte{scan.Payloads[0], flipped} {
				if _, err := w.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(w.Path(), path); err != nil {
				t.Fatal(err)
			}
		}, "running chain check diverged"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, path := journaledService(t, 4, Config{})
			mustAdmit(t, svc, 0)
			svc.Close()
			tc.forge(t, path)
			_, _, err := Recover(path, Config{})
			var re *ReplayError
			if !errors.As(err, &re) || !strings.Contains(re.Reason, tc.reason) {
				t.Fatalf("error = %v, want a *ReplayError mentioning %q", err, tc.reason)
			}
		})
	}
}

// A restarted daemon resumes its compaction and digest cadence where the
// journal shows the crashed one left it, instead of starting both at zero.
func TestRecoverResumesCompactionAndDigestCadence(t *testing.T) {
	t.Run("compaction", func(t *testing.T) {
		cfg := Config{CompactEvery: 8}
		svc, path := journaledService(t, 8, cfg)
		for k := 0; k < 6; k++ {
			mustAdmit(t, svc, k)
		}
		svc.Close()
		rec, _, err := Recover(path, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustAdmit(t, rec, 6)
		mustAdmit(t, rec, 7)
		rec.Close()
		file, err := loadSnapshotFile(JournalSnapshotPath(path))
		if err != nil {
			t.Fatal(err)
		}
		if file.Seq != 8 {
			t.Fatalf("sidecar at seq %d after 8 records with CompactEvery 8, want a compaction at seq 8", file.Seq)
		}
	})
	t.Run("digest", func(t *testing.T) {
		cfg := Config{DigestEvery: 4}
		svc, path := journaledService(t, 8, cfg)
		for k := 0; k < 3; k++ {
			mustAdmit(t, svc, k)
		}
		svc.Close()
		rec, _, err := Recover(path, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := mustAdmit(t, rec, 3)
		rec.Close()
		scan, err := journal.Scan(path)
		if err != nil {
			t.Fatal(err)
		}
		last, err := decodeOpRecord(scan.Payloads[len(scan.Payloads)-1])
		if err != nil {
			t.Fatal(err)
		}
		if last.Seq != want.Seq || last.StateDigest == "" {
			t.Fatalf("record at seq %d carries digest %q; the 4th record with DigestEvery 4 must carry one", last.Seq, last.StateDigest)
		}
	})
}
