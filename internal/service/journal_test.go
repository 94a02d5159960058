package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/overload"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// journaledService starts a journaling daemon over the standard test system
// and returns it with its journal path.
func journaledService(t *testing.T, m int, cfg Config) (*Service, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shipd.wal")
	cfg.Journal = path
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "manual-snapshot.json")
	svc := newTestService(t, m, cfg)
	return svc, path
}

// driveOps runs a representative mixed op sequence: admissions (some of which
// conflict and must NOT be journaled), removals, rescales (accepted and
// rejected), faults, and a surge episode.
func driveOps(t *testing.T, svc *Service) {
	t.Helper()
	for k := 0; k < 6; k++ {
		mustAdmit(t, svc, k)
	}
	if _, err := svc.Remove(2); err != nil {
		t.Fatal(err)
	}
	if d, err := svc.Rescale(3, 1.5); err != nil || !d.Accepted {
		t.Fatalf("rescale: %+v, %v", d, err)
	}
	// A rescale far beyond capacity is rejected — a seq-advancing decision
	// that must replay as the same rejection.
	if d, err := svc.Rescale(4, 1e9); err != nil {
		t.Fatal(err)
	} else if d.Accepted {
		t.Fatal("absurd rescale accepted")
	}
	if _, err := svc.Faults(FaultsRequest{Fail: []faults.Resource{faults.Machine(1)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Faults(FaultsRequest{Repair: []faults.Resource{faults.Machine(1)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Surge(&overload.Scenario{
		Name:   "journal-test-swell",
		Events: []overload.Event{{Kind: overload.Step, At: 0, Duration: 30, Factor: 1.4}},
	}); err != nil {
		t.Fatal(err)
	}
	// Envelope errors must not advance seq or touch the journal.
	if _, err := svc.Admit(0); err == nil {
		t.Fatal("duplicate admit did not error")
	}
}

func stateOf(t *testing.T, svc *Service) StateResponse {
	t.Helper()
	st, err := svc.State()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// The core recovery contract: kill a journaled daemon (simulated by not
// closing it cleanly from the journal's point of view — Close flushes, which
// a real crash also gets for completed write(2)s) and Recover must land on a
// bit-identical state.
func TestRecoverReproducesStateBitIdentically(t *testing.T) {
	svc, path := journaledService(t, 8, Config{DigestEvery: 3})
	driveOps(t, svc)
	want := stateOf(t, svc)
	svc.Close()

	rec, rep, err := Recover(path, Config{DigestEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep.Replayed == 0 {
		t.Fatalf("report = %+v, want replayed ops", rep)
	}
	got := stateOf(t, rec)
	if got.Digest != want.Digest {
		t.Fatalf("recovered digest %s, want %s", got.Digest, want.Digest)
	}
	if got.Seq != want.Seq {
		t.Fatalf("recovered seq %d, want %d", got.Seq, want.Seq)
	}
	if rep.FinalSeq != want.Seq || rep.Digest != want.Digest {
		t.Fatalf("report %+v disagrees with state seq %d digest %s", rep, want.Seq, want.Digest)
	}
	// Satellite: replay-dedupe. An op acked before the crash must be
	// idempotently observable — re-applying it is the same conflict the live
	// path reports, not a double-apply.
	if _, err := rec.Admit(0); err == nil {
		t.Fatal("re-admit after recovery did not conflict")
	} else {
		var env *ErrorEnvelope
		if !errors.As(err, &env) || env.Err.Code != CodeConflict {
			t.Fatalf("re-admit error = %v, want %s envelope", err, CodeConflict)
		}
	}
	// And the recovered daemon keeps serving + journaling.
	if d, err := rec.Admit(2); err != nil || !d.Accepted {
		t.Fatalf("admit after recovery: %+v, %v", d, err)
	}
}

// A torn final record (crash mid-append) is discarded and reported; the
// recovered state matches the acked history minus the torn op.
func TestRecoverDiscardsTornTail(t *testing.T) {
	svc, path := journaledService(t, 6, Config{})
	for k := 0; k < 4; k++ {
		mustAdmit(t, svc, k)
	}
	svc.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	rec, rep, err := Recover(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if !rep.Torn || rep.TornBytes == 0 {
		t.Fatalf("report = %+v, want torn tail", rep)
	}
	if rep.Replayed != 3 || rep.FinalSeq != 3 {
		t.Fatalf("report = %+v, want 3 replayed ops", rep)
	}
	// The torn admit (string 3) was never acked-and-recovered: re-admitting
	// succeeds.
	if d, err := rec.Admit(3); err != nil || !d.Accepted {
		t.Fatalf("re-admit of torn op: %+v, %v", d, err)
	}
}

// Satellite corruption taxonomy at the service layer: a CRC-flipped middle
// record is a typed hard error, never a silent repair.
func TestRecoverCorruptMiddleRecordIsTypedError(t *testing.T) {
	svc, path := journaledService(t, 6, Config{})
	for k := 0; k < 5; k++ {
		mustAdmit(t, svc, k)
	}
	svc.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Recover(path, Config{})
	var ce *journal.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error = %v, want *journal.CorruptError", err)
	}
}

// A journal whose records carry any schema version but this daemon's — a newer
// daemon's, or an older one's behind a current sidecar — is refused at the
// header with the typed *SchemaVersionError naming both versions, same contract
// as snapshots; it is not replayed until some chain check fails.
func TestRecoverJournalSchemaVersion(t *testing.T) {
	for _, tc := range []struct {
		name    string
		version int
	}{
		{"older", SchemaVersion - 1},
		{"equal", SchemaVersion},
		{"newer", SchemaVersion + 97},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, path := journaledService(t, 4, Config{})
			mustAdmit(t, svc, 0)
			live, err := svc.State()
			if err != nil {
				t.Fatal(err)
			}
			svc.Close()

			scan, err := journal.Scan(path)
			if err != nil {
				t.Fatal(err)
			}
			w, _, err := journal.Open(filepath.Join(t.TempDir(), "other.wal"), journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ours := fmt.Sprintf(`{"v":%d,`, SchemaVersion)
			for _, p := range scan.Payloads {
				if !strings.HasPrefix(string(p), ours) {
					t.Fatalf("record %s does not start with its schema version", p)
				}
				stamped := fmt.Sprintf(`{"v":%d,`, tc.version) + strings.TrimPrefix(string(p), ours)
				if _, err := w.Append([]byte(stamped)); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(w.Path(), path); err != nil {
				t.Fatal(err)
			}
			rec, rep, err := Recover(path, Config{})
			if tc.version == SchemaVersion {
				if err != nil {
					t.Fatalf("journal of this daemon's schema version refused: %v", err)
				}
				defer rec.Close()
				if rep.Replayed != 1 || rep.Digest != live.Digest {
					t.Fatalf("recovered %d records to digest %s, want 1 and %s", rep.Replayed, rep.Digest, live.Digest)
				}
				return
			}
			var sve *SchemaVersionError
			if !errors.As(err, &sve) {
				t.Fatalf("error = %v, want *SchemaVersionError", err)
			}
			if sve.Version != tc.version || sve.Supported != SchemaVersion {
				t.Fatalf("SchemaVersionError = %+v, want version %d against supported %d", sve, tc.version, SchemaVersion)
			}
			if !strings.Contains(err.Error(), "record 0") {
				t.Fatalf("error %q does not name the header record", err)
			}
		})
	}
}

// A tampered periodic state digest (replay divergence) is a typed
// *ReplayError — the journal's own framing is intact, so this is the chained
// verification layer catching it.
func TestRecoverTamperedDigestIsReplayError(t *testing.T) {
	svc, path := journaledService(t, 6, Config{DigestEvery: 2})
	for k := 0; k < 6; k++ {
		mustAdmit(t, svc, k)
	}
	svc.Close()

	scan, err := journal.Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := journal.Open(filepath.Join(t.TempDir(), "tampered.wal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	for _, p := range scan.Payloads {
		var rec opRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.StateDigest != "" && !tampered {
			rec.StateDigest = "0123456789abcdef"
			tampered = true
			p, err = json.Marshal(&rec)
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if !tampered {
		t.Fatal("no periodic digest record found to tamper with")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(w.Path(), path); err != nil {
		t.Fatal(err)
	}
	_, _, err = Recover(path, Config{DigestEvery: 2})
	var re *ReplayError
	if !errors.As(err, &re) {
		t.Fatalf("error = %v, want *ReplayError", err)
	}
	if !strings.Contains(re.Reason, "digest") {
		t.Fatalf("ReplayError reason %q does not mention the digest", re.Reason)
	}
}

// Journals written before the never-drawn service RNG stream was removed
// carry a constant "rngCalls":0 in every record. No schema version moved, so
// such a journal must still recover, to the same state.
func TestRecoverLegacyJournalRecords(t *testing.T) {
	svc, path := journaledService(t, 6, Config{})
	driveOps(t, svc)
	want := stateOf(t, svc)
	svc.Close()

	scan, err := journal.Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	w, _, err := journal.Open(filepath.Join(t.TempDir(), "legacy.wal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range scan.Payloads {
		var rec map[string]json.RawMessage
		if err := json.Unmarshal(p, &rec); err != nil {
			t.Fatal(err)
		}
		rec["rngCalls"] = json.RawMessage("0")
		if p, err = json.Marshal(rec); err != nil {
			t.Fatal(err)
		}
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
	rec, _, err := Recover(path, Config{})
	if err != nil {
		t.Fatalf("recover from a journal with the legacy field: %v", err)
	}
	defer rec.Close()
	if got := stateOf(t, rec); got.Digest != want.Digest || got.Seq != want.Seq {
		t.Fatalf("recovered seq %d digest %s, want seq %d digest %s", got.Seq, got.Digest, want.Seq, want.Digest)
	}
}

// The record decoder refuses rather than guesses, and Recover keeps its order
// of checks over it: a record that does not decode is a *ReplayError saying
// where — before its schema version is looked at — and one that decodes to an
// op no binary wrote fails on replay, naming the op.
func TestRecoverUndecodableRecordIsReplayError(t *testing.T) {
	for _, tc := range []struct {
		name, old, new string
		wantInReason   string
	}{
		{"case variant", `"seq":1,`, `"Seq":1,`, `undecodable record: unknown field "Seq" at offset`},
		{"escaped name", `"op":"admit"`, `"o\u0070":"admit"`, "undecodable record: malformed field name"},
		{"escaped op", `"op":"admit"`, `"op":"adm\u0069t"`, `undecodable record: field "op": want a plain string`},
		{"duplicate", `"seq":1,`, `"seq":1,"seq":1,`, `undecodable record: duplicate field "seq" at offset`},
		{"null", `"accepted":true`, `"accepted":null`, `undecodable record: field "accepted": want true or false at offset`},
		{"undecodable and another version", fmt.Sprintf(`{"v":%d,"seq":1,`, SchemaVersion), `{"v":1,"seq":1.0,`, `undecodable record: field "seq": want an integer`},
		{"trailing bytes", `"}`, `"} {}`, "undecodable record: trailing data"},
		{"unknown op", `"op":"admit"`, `"op":"admix"`, `journaled op failed on replay`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, path := journaledService(t, 4, Config{})
			mustAdmit(t, svc, 0)
			svc.Close()
			scan, err := journal.Scan(path)
			if err != nil {
				t.Fatal(err)
			}
			w, _, err := journal.Open(filepath.Join(t.TempDir(), "edited.wal"), journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range scan.Payloads {
				if i == 1 {
					edited := strings.Replace(string(p), tc.old, tc.new, 1)
					if edited == string(p) {
						t.Fatalf("record %s has no %s to edit", p, tc.old)
					}
					p = []byte(edited)
				}
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
			_, _, err = Recover(path, Config{})
			var re *ReplayError
			if !errors.As(err, &re) || re.Index != 1 || !strings.Contains(re.Reason, tc.wantInReason) {
				t.Fatalf("error = %v, want a *ReplayError on record 1 mentioning %q", err, tc.wantInReason)
			}
		})
	}
}

// Compaction: after CompactEvery ops the journal folds into its sidecar
// snapshot; recovery from the compacted pair is still bit-identical, and a
// crash between the compaction snapshot and the truncate (simulated by
// restoring the pre-truncate journal bytes) replays with stale records
// skipped, not double-applied.
func TestCompactionAndStaleSeqSkip(t *testing.T) {
	svc, path := journaledService(t, 8, Config{CompactEvery: 5})
	var preCompact []byte
	for k := 0; k < 8; k++ {
		mustAdmit(t, svc, k)
		if k == 3 { // 4 ops + header appended, compaction (at 5) not yet run
			var err error
			if preCompact, err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := stateOf(t, svc)
	svc.Close()

	// Normal compacted recovery.
	rec, rep, err := Recover(path, Config{CompactEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := stateOf(t, rec); got.Digest != want.Digest || got.Seq != want.Seq {
		t.Fatalf("compacted recovery: seq %d digest %s, want seq %d digest %s",
			got.Seq, got.Digest, want.Seq, want.Digest)
	}
	if rep.SnapshotSeq != 5 {
		t.Fatalf("report = %+v, want compaction snapshot at seq 5", rep)
	}
	rec.Close()

	// Crash-between-snapshot-and-truncate: sidecar is at seq 5, but the
	// journal still holds records 1..4 (pre-compaction bytes). They must be
	// skipped as already folded in.
	if err := os.WriteFile(path, preCompact, 0o644); err != nil {
		t.Fatal(err)
	}
	rec2, rep2, err := Recover(path, Config{CompactEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	if rep2.Skipped != 4 || rep2.Replayed != 0 {
		t.Fatalf("report = %+v, want 4 skipped and 0 replayed", rep2)
	}
	if got := stateOf(t, rec2); got.Seq != 5 {
		t.Fatalf("recovered seq %d, want snapshot seq 5", got.Seq)
	}
	// Strings 0..4 are admitted in the snapshot; skipping must not have
	// un-admitted or double-admitted anything.
	if _, err := rec2.Admit(3); err == nil {
		t.Fatal("string 3 not admitted after stale-seq skip recovery")
	}
	if d, err := rec2.Admit(5); err != nil || !d.Accepted {
		t.Fatalf("admit 5 after skip recovery: %+v, %v", d, err)
	}
}

// New with a journal path refuses to start over a non-empty journal: that
// history belongs to Recover.
func TestNewRefusesExistingJournal(t *testing.T) {
	svc, path := journaledService(t, 4, Config{})
	mustAdmit(t, svc, 0)
	svc.Close()

	_, err := New(Config{System: testSystem(4), Journal: path})
	if err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("New over existing journal: %v, want refusal", err)
	}
}

// A failed append breaks the journal: the mutation errors, later mutations
// fail fast with CodeInternal, reads keep serving, healthz goes 500 and
// readyz 503.
func TestBrokenJournalFailsFastAndReportsHealth(t *testing.T) {
	svc, _ := journaledService(t, 6, Config{})
	mustAdmit(t, svc, 0)
	// Force an append failure: a payload over MaxRecordBytes cannot be
	// framed, so the journal layer rejects it after the op already applied —
	// the indeterminate-op case the broken flag exists for.
	if err := svc.exec(func(st *state) {
		payload := []byte(fmt.Sprintf(`{"stringId":1,"pad":%q}`,
			strings.Repeat("x", int(journal.MaxRecordBytes))))
		_, e := st.mutateOp(&mutation{op: opAdmit, k: 1, payload: payload})
		if e == nil {
			t.Error("oversized journaled op did not error")
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Admit(2); err == nil {
		t.Fatal("mutation after broken journal succeeded")
	} else {
		var env *ErrorEnvelope
		if !errors.As(err, &env) || env.Err.Code != CodeInternal {
			t.Fatalf("error = %v, want %s envelope", err, CodeInternal)
		}
	}
	if _, err := svc.State(); err != nil {
		t.Fatalf("read after broken journal: %v", err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	if resp, err := srv.Client().Get(srv.URL + "/v1/healthz"); err != nil || resp.StatusCode != 500 {
		t.Fatalf("healthz on broken journal: %v, %v", resp.StatusCode, err)
	}
	if resp, err := srv.Client().Get(srv.URL + "/v1/readyz"); err != nil || resp.StatusCode != 503 {
		t.Fatalf("readyz on broken journal: %v, %v", resp.StatusCode, err)
	}
}

// Satellite: healthz/readyz across the lifecycle — ready, then draining
// (503 CodeUnavailable with the phase in the envelope), with liveness green
// throughout.
func TestHealthzReadyzLifecycle(t *testing.T) {
	svc := newTestService(t, 4, Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	getJSON := func(path string, wantStatus int) map[string]any {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s status = %d, want %d", path, resp.StatusCode, wantStatus)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	h := getJSON("/v1/healthz", 200)
	if h["status"] != "ok" || h["phase"] != "ready" {
		t.Fatalf("healthz = %v", h)
	}
	r := getJSON("/v1/readyz", 200)
	if r["status"] != "ready" {
		t.Fatalf("readyz = %v", r)
	}

	svc.BeginDrain()
	h = getJSON("/v1/healthz", 200) // draining is alive
	if h["phase"] != "draining" {
		t.Fatalf("healthz while draining = %v", h)
	}
	r = getJSON("/v1/readyz", 503)
	errBody, _ := r["error"].(map[string]any)
	if errBody == nil || errBody["code"] != CodeUnavailable {
		t.Fatalf("readyz while draining = %v, want %s envelope", r, CodeUnavailable)
	}
	// Draining only sheds readiness; operations still complete until Close.
	if d, err := svc.Admit(0); err != nil || !d.Accepted {
		t.Fatalf("admit while draining: %+v, %v", d, err)
	}
}

// The pre-recovery handler: alive, not ready, no API surface.
func TestRecoveringHandler(t *testing.T) {
	srv := httptest.NewServer(RecoveringHandler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz while recovering: %v, %v", resp, err)
	}
	resp.Body.Close()
	for _, path := range []string{"/v1/readyz", "/v1/state"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var env ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 503 || env.Err.Code != CodeUnavailable {
			t.Fatalf("GET %s while recovering: status %d, code %q", path, resp.StatusCode, env.Err.Code)
		}
	}
}

// Unjournaled daemons behave exactly as before: no journal file, no chain,
// and the whole suite above rides on opt-in.
func TestUnjournaledServiceWritesNothing(t *testing.T) {
	dir := t.TempDir()
	svc := newTestService(t, 4, Config{SnapshotPath: filepath.Join(dir, "snap.json")})
	mustAdmit(t, svc, 0)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("unjournaled daemon wrote %v", entries)
	}
}

// The one serving flag no other test turns on. With LPBound the relaxed-LP
// worth bound rides along in every Decision and in the state, never below the
// mapped worth; single-string rescales move the catalog a little at a time, so
// re-solves warm-start from the previous basis (unlike `lpbound -rescale`,
// whose uniform scaling the solver refuses); and the bound is advisory — it is
// in neither the state digest nor the journal's chain check, so a journaled
// LPBound daemon recovers to the same digest and chain with the flag on or off.
func TestLPBoundFollowsRescales(t *testing.T) {
	cfg := workload.ScenarioConfig(workload.HighlyLoaded)
	cfg.Strings = 50 // an LP small enough to re-solve ~50 times under -race
	sys := workload.MustGenerate(cfg, 1)
	path := filepath.Join(t.TempDir(), "shipd.wal")
	svc, err := New(Config{System: sys, Heuristic: "MWF", LPBound: true, Journal: path})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	checkBound := func(what string, bound, worth float64) {
		t.Helper()
		if bound <= 0 || bound < worth-1e-6 {
			t.Fatalf("%s: worth bound %v, want present and >= mapped worth %v", what, bound, worth)
		}
	}
	warm := 0
	const rescales = 20
	for i := 0; i < rescales; i++ {
		k, factor := (7*i+3)%len(sys.Strings), 1.1
		if i%2 == 1 {
			factor = 0.9
		}
		d, err := svc.Rescale(k, factor)
		if err != nil {
			t.Fatal(err)
		}
		checkBound(fmt.Sprintf("rescale %d (string %d x%v)", i, k, factor), d.WorthBound, d.WorthAfter)
		if d.Accepted && d.BoundWarmStarted {
			warm++
		}
	}
	if warm == 0 {
		t.Errorf("no bound re-solve warm-started across %d single-string rescales", rescales)
	}
	t.Logf("%d of %d rescales re-solved the bound from a warm basis", warm, rescales)
	want := stateOf(t, svc)
	checkBound("state", want.WorthBound, want.Worth)
	var chain string
	if err := svc.exec(func(st *state) { chain = st.chain }); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	for _, lpBound := range []bool{true, false} {
		rec, _, err := Recover(path, Config{LPBound: lpBound})
		if err != nil {
			t.Fatalf("recover with LPBound=%v: %v", lpBound, err)
		}
		got := stateOf(t, rec)
		var gotChain string
		if err := rec.exec(func(st *state) { gotChain = st.chain }); err != nil {
			t.Fatal(err)
		}
		rec.Close()
		if got.Digest != want.Digest || got.Seq != want.Seq || gotChain != chain {
			t.Fatalf("recovered with LPBound=%v: seq %d digest %s chain %s, want %d %s %s",
				lpBound, got.Seq, got.Digest, gotChain, want.Seq, want.Digest, chain)
		}
		if lpBound {
			checkBound("recovered state", got.WorthBound, got.Worth)
		} else if got.WorthBound != 0 {
			t.Fatalf("recovered without LPBound, yet the state carries bound %v", got.WorthBound)
		}
	}
}

// A faults or surge request is journaled as its json.Marshal, and the state
// applies what those bytes parse back to, live and on replay alike. A journal
// of fault, surge and repair records — a name and an ID that need escapes,
// and a surge of no events, whose payload carries "events":null — recovers to
// the same seq, digest and chain, and carries each request as json.Marshal
// wrote it. The re-deciding oracle holds on it too, and the recovered state
// reads as the live one byte for byte (checkReplays): live, Survive reused
// the daemon's analyzer, on replay it attaches its own.
func TestFaultsAndSurgeRecordsReplay(t *testing.T) {
	svc, path := journaledService(t, 6, Config{})
	for k := 0; k < 6; k++ {
		mustAdmit(t, svc, k)
	}
	requireStateRead(t, svc, "admitted")
	reqs := []any{
		FaultsRequest{Fail: []faults.Resource{faults.Machine(1), faults.Route(2, 3)}},
		&overload.Scenario{Name: "swell \"<&>\"   é", Seed: 7, Events: []overload.Event{
			{ID: "e\\1\t\"q\"", Kind: overload.Ramp, Strings: []int{0, 4}, Duration: 30, Factor: 1.3, Rise: 5}}},
		&overload.Scenario{},
		FaultsRequest{Repair: []faults.Resource{faults.Machine(1), faults.Route(2, 3)}},
	}
	for _, req := range reqs {
		var err error
		switch r := req.(type) {
		case FaultsRequest:
			_, err = svc.Faults(r)
		case *overload.Scenario:
			_, err = svc.Surge(r)
		}
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		requireStateRead(t, svc, fmt.Sprintf("%+v", req))
	}
	live := requireStateRead(t, svc, "live")
	var chain string
	if err := svc.exec(func(st *state) { chain = st.chain }); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	scan, err := journal.Scan(path)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for _, raw := range scan.Payloads {
		rec, err := decodeOpRecord(raw)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Op == opFaults || rec.Op == opSurge {
			payloads = append(payloads, rec.Payload)
		}
	}
	if len(payloads) != len(reqs) {
		t.Fatalf("%d faults and surge records, want %d", len(payloads), len(reqs))
	}
	for i, req := range reqs {
		if data, err := json.Marshal(req); err != nil || !bytes.Equal(payloads[i], data) {
			t.Errorf("record %d carries %s, json.Marshal of its request is %s (%v)", i, payloads[i], data, err)
		}
	}

	rec, rep := checkReplays(t, path, Config{}, live)
	var gotChain string
	if err := rec.exec(func(st *state) { gotChain = st.chain }); err != nil {
		t.Fatal(err)
	}
	if gotChain != chain || rep.Replayed != 6+len(reqs) {
		t.Fatalf("recovered %d records to chain %s; want %d, %s", rep.Replayed, gotChain, 6+len(reqs), chain)
	}
}

// A running daemon shows how long its last recovery took: the two wall times
// of the RecoveryReport, as gauges in seconds.
func TestRecoverSetsTimingGauges(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	path := filepath.Join(t.TempDir(), "g.wal")
	svc, err := New(Config{System: testSystem(6), Journal: path})
	if err != nil {
		t.Fatal(err)
	}
	mustAdmit(t, svc, 0)
	svc.Close()
	rec, rep, err := Recover(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	snap := telemetry.Capture()
	if got := snap.Gauges["service.recover.catalog_load_s"]; got != rep.CatalogLoad.Seconds() || got <= 0 {
		t.Errorf("catalog_load_s = %v, report %v", got, rep.CatalogLoad)
	}
	if got := snap.Gauges["service.recover.replay_s"]; got != rep.Replay.Seconds() || got <= 0 {
		t.Errorf("replay_s = %v, report %v", got, rep.Replay)
	}
}
