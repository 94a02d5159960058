package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// writeTestCatalog writes sys's catalog file into dir the way a snapshot
// does and returns the reference a hand-built SnapshotFile pins it with.
func writeTestCatalog(t testing.TB, dir string, sys *model.System) *CatalogRef {
	t.Helper()
	data, ref, err := encodeCatalog(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ref.File), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return &ref
}

// paperSystem is a cut-down scenario-1 suite: generated floats with full
// mantissas, where a running product and one multiply differ in the last ulp.
func paperSystem(strings int, seed int64) *model.System {
	cfg := workload.ScenarioConfig(workload.HighlyLoaded)
	cfg.Strings = strings
	return workload.MustGenerate(cfg, seed)
}

// demandBits flattens the floats a rescale writes (nominal times and output
// sizes, string by string) into their bit patterns.
func demandBits(sys *model.System) []uint64 {
	var out []uint64
	for k := range sys.Strings {
		for _, a := range sys.Strings[k].Apps {
			for _, t := range a.NominalTime {
				out = append(out, math.Float64bits(t))
			}
			out = append(out, math.Float64bits(a.OutputKB))
		}
	}
	return out
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// viewOf returns the bit patterns of the service's working view and of
// base × scale computed here, one multiply per float.
func viewOf(t testing.TB, svc *Service) (view, want []uint64) {
	t.Helper()
	if err := svc.exec(func(st *state) {
		view = demandBits(st.sys)
		for k := range st.base.Strings {
			for _, a := range st.base.Strings[k].Apps {
				for _, x := range a.NominalTime {
					want = append(want, math.Float64bits(x*st.scale[k]))
				}
				want = append(want, math.Float64bits(a.OutputKB*st.scale[k]))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	return view, want
}

func mustRescale(t testing.TB, svc *Service, k int, factor float64) {
	t.Helper()
	if d, err := svc.Rescale(k, factor); err != nil || !d.Accepted {
		t.Fatalf("rescale(%d, %v): %+v, %v", k, factor, d, err)
	}
}

// closingFactor finds f with g*f == 1 exactly: 1/g or one of its neighbours.
func closingFactor(g float64) (float64, bool) {
	f := 1 / g
	for _, c := range []float64{f, math.Nextafter(f, 0), math.Nextafter(f, 2*f)} {
		if g*c == 1 {
			return c, true
		}
	}
	return 0, false
}

// Demand is base × scale, so a string rescaled back to scale 1 — by ×2 then
// ×0.5, or by a keyed random walk whose product closes at exactly 1 — is the
// base string again, bit for bit, and a service that went through that is
// indistinguishable from one that never rescaled. New does not write to the
// caller's system either: both services and the pristine copy share it.
func TestRescaleBackToOneIsTheBaseCatalog(t *testing.T) {
	const seed, n = 11, 24
	sys := paperSystem(n, seed)
	pristine := demandBits(sys.Clone())
	walked, err := New(Config{System: sys})
	if err != nil {
		t.Fatal(err)
	}
	defer walked.Close()
	never, err := New(Config{System: sys})
	if err != nil {
		t.Fatal(err)
	}
	defer never.Close()

	r := rng.NewRand(seed, "service/catalog", 0)
	for k := 0; k < n; k++ {
		mustRescale(t, walked, k, 2)
		mustRescale(t, walked, k, 0.5)
		// At least three random steps, then on until some float closes the
		// product at exactly 1.
		g := 1.0
		for step := 1; ; step++ {
			f := 0.7 + 2.3*r.Float64()
			mustRescale(t, walked, k, f)
			g *= f
			if step == 3 {
				if view, _ := viewOf(t, walked); equalBits(view, pristine) {
					t.Fatalf("string %d: the view did not move under a random walk", k)
				}
			}
			if closing, ok := closingFactor(g); ok && step >= 3 {
				mustRescale(t, walked, k, closing)
				break
			}
		}
	}
	st := stateOf(t, walked)
	for _, ss := range st.StringStates {
		if ss.Scale != 1 {
			t.Fatalf("string %d ended its walk at scale %v, want exactly 1", ss.ID, ss.Scale)
		}
	}
	if view, _ := viewOf(t, walked); !equalBits(view, pristine) {
		t.Fatal("view differs from the base catalog after every string returned to scale 1")
	}
	if !equalBits(demandBits(sys), pristine) {
		t.Fatal("the service wrote to the caller's Config.System")
	}

	// Same placements on both from here: every decision and digest must agree.
	for k := 0; k < n; k++ {
		a, errA := walked.Admit(k)
		b, errB := never.Admit(k)
		if errA != nil || errB != nil {
			t.Fatalf("admit %d: %v / %v", k, errA, errB)
		}
		if a.Accepted != b.Accepted || math.Float64bits(a.Slackness) != math.Float64bits(b.Slackness) {
			t.Fatalf("admit %d: walked %+v, never-rescaled %+v", k, a, b)
		}
		if da, db := digestOf(t, walked), digestOf(t, never); da != db {
			t.Fatalf("admit %d: digest %s, never-rescaled service %s", k, da, db)
		}
	}
	// A mapped string re-places on the way; its floats still come home.
	mapped := -1
	for _, ss := range stateOf(t, walked).StringStates {
		if ss.Mapped {
			mapped = ss.ID
			break
		}
	}
	if mapped < 0 {
		t.Fatal("nothing mapped")
	}
	mustRescale(t, walked, mapped, 2)
	mustRescale(t, walked, mapped, 0.5)
	if view, _ := viewOf(t, walked); !equalBits(view, pristine) {
		t.Fatal("view differs from the base catalog after ×2 ×0.5 on a mapped string")
	}
}

// After 10⁴ mixed ops — accepted and rejected rescales of mapped and unmapped
// strings among them — every live demand float is base × scale[k], one
// multiply from the pristine float, and the base catalog was never written.
func TestViewIsBaseTimesScaleAfterMixedOps(t *testing.T) {
	const seed, n, ops = 23, 60, 10000
	sys := paperSystem(n, seed)
	pristine := demandBits(sys.Clone())
	svc, err := New(Config{System: sys})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	r := rng.NewRand(seed, "service/catalog", 1)
	var rejectedRescales int
	for step := 0; step < ops; step++ {
		op, k, factor := modelOp(r, n)
		if op == opRescale && step%2 == 0 {
			factor = 1 / factor // keep the walk from drifting to infinity
		}
		d, err := applyModelOp(svc, op, k, factor) // conflicts are part of the stream
		if op == opRescale {
			if err != nil {
				t.Fatalf("step %d rescale(%d, %v): %v", step, k, factor, err)
			}
			if !d.Accepted {
				rejectedRescales++
			}
		}
		if step%1000 == 999 {
			if view, want := viewOf(t, svc); !equalBits(view, want) {
				t.Fatalf("step %d: live demand floats differ from base × scale", step)
			}
		}
	}
	if rejectedRescales == 0 {
		t.Error("weak stream: no rescale was rejected")
	}
	if !equalBits(demandBits(sys), pristine) {
		t.Fatal("the base catalog was written to")
	}
}

// Import/export mid-stream: a service restored from a snapshot taken halfway
// through a keyed op stream carries the same demand floats as the one that
// wrote it (the allocation digest alone would not see a wrong float until a
// later placement used it) and, fed the rest of the stream, makes the same
// decisions and lands on the same digest at every step.
func TestRestoreMidStreamMatchesUninterrupted(t *testing.T) {
	const seed, n, ops = 31, 40, 600
	sys := paperSystem(n, seed)
	live, err := New(Config{System: sys})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	r := rng.NewRand(seed, "service/catalog", 2)
	for step := 0; step < ops/2; step++ {
		op, k, factor := modelOp(r, n)
		_, _ = applyModelOp(live, op, k, factor)
	}
	path := filepath.Join(t.TempDir(), "mid.json")
	if _, err := live.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	viewA, _ := viewOf(t, live)
	viewB, wantB := viewOf(t, restored)
	if !equalBits(viewA, viewB) || !equalBits(viewB, wantB) {
		t.Fatal("restored demand floats differ from the live service's at the restore point")
	}
	if view, _ := viewOf(t, live); equalBits(view, demandBits(sys)) {
		t.Fatal("weak stream: nothing was rescaled before the snapshot")
	}
	for step := ops / 2; step < ops; step++ {
		op, k, factor := modelOp(r, n)
		a, errA := applyModelOp(live, op, k, factor)
		b, errB := applyModelOp(restored, op, k, factor)
		label := fmt.Sprintf("step %d %s(%d, %.3f)", step, op, k, factor)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: live error %v, restored error %v", label, errA, errB)
		}
		if a.Seq != b.Seq || a.Accepted != b.Accepted || a.Reason != b.Reason ||
			math.Float64bits(a.WorthAfter) != math.Float64bits(b.WorthAfter) ||
			math.Float64bits(a.Slackness) != math.Float64bits(b.Slackness) {
			t.Fatalf("%s: live %+v, restored %+v", label, a, b)
		}
		if da, db := digestOf(t, live), digestOf(t, restored); da != db {
			t.Fatalf("%s: live digest %s, restored %s", label, da, db)
		}
	}
}

// catalogFiles lists the catalog files in dir.
func catalogFiles(t testing.TB, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "catalog-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// At fleet size the catalog is megabytes and a compaction must not write it:
// across many compactions the catalog file is written once (same inode, one
// catalog_writes tick) and each sidecar snapshot is a few kilobytes.
func TestCompactionWritesCatalogOnce(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	before := telemetry.Capture()

	sys := workload.MustGenerate(workload.FleetConfig(128, 2), 3)
	journalPath := filepath.Join(t.TempDir(), "fleet.wal")
	svc, err := New(Config{System: sys, Journal: journalPath, CompactEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	names := catalogFiles(t, filepath.Dir(journalPath))
	if len(names) != 1 {
		t.Fatalf("catalog files after bootstrap: %v, want one", names)
	}
	first, err := os.Stat(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if first.Size() < 1<<20 {
		t.Fatalf("fleet catalog is %d bytes; the test means to cover a multi-megabyte one", first.Size())
	}
	r := rng.NewRand(3, "service/catalog", 3)
	for step := 0; step < 200; step++ {
		op, k, factor := modelOp(r, len(sys.Strings))
		_, _ = applyModelOp(svc, op, k, factor)
	}
	after := telemetry.Capture()
	compactions := after.Counter("service.journal.compactions") - before.Counter("service.journal.compactions")
	if compactions < 10 {
		t.Fatalf("%d compactions, want at least 10", compactions)
	}
	if got := after.Counter("service.journal.catalog_writes") - before.Counter("service.journal.catalog_writes"); got != 1 {
		t.Errorf("service.journal.catalog_writes grew by %d over %d compactions, want 1", got, compactions)
	}
	if names := catalogFiles(t, filepath.Dir(journalPath)); len(names) != 1 {
		t.Fatalf("catalog files after %d compactions: %v, want one", compactions, names)
	}
	if now, err := os.Stat(names[0]); err != nil || !os.SameFile(first, now) {
		t.Errorf("catalog file was rewritten (stat error %v)", err)
	}
	snap, err := os.Stat(JournalSnapshotPath(journalPath))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Size() >= 64<<10 {
		t.Errorf("compaction snapshot is %d bytes, want under 64 KB", snap.Size())
	}
	if stateOf(t, svc).MappedCount == 0 {
		t.Error("weak stream: nothing mapped when the last snapshot was taken")
	}
}

// The state file describes the mapped set, not the ship: the same strings
// mapped on a suite sixteen times the size cost the same bytes, give or take
// the digits of the machine indices.
func TestSnapshotSizeIndependentOfMachineCount(t *testing.T) {
	size := func(m int) int64 {
		sys := model.NewUniformSystem(m, 100)
		for k := 0; k < 16; k++ {
			sys.AddString(model.AppString{Worth: 1, Period: 100, MaxLatency: 500, Apps: []model.Application{
				model.UniformApp(m, 1.0, 0.2, 10), model.UniformApp(m, 1.0, 0.2, 10)}})
		}
		svc, err := New(Config{System: sys})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		for k := 0; k < 8; k++ {
			mustAdmit(t, svc, k)
		}
		path := filepath.Join(t.TempDir(), "snap.json")
		if _, err := svc.Snapshot(path); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	small, large := size(16), size(256)
	if diff := large - small; diff < -64 || diff > 64 {
		t.Errorf("snapshot is %d bytes at M=16 and %d at M=256; want equal within index digits", small, large)
	}
}

// Crash window: the process died after the catalog write and before the
// first snapshot. Neither journal nor sidecar exists, so the next start is a
// fresh one; it finds the catalog in place and does not write it again. A
// catalog-named file with the wrong bytes is replaced instead.
func TestBootstrapFindsCatalogInPlace(t *testing.T) {
	sys := testSystem(6)
	dir := t.TempDir()
	ref := writeTestCatalog(t, dir, sys)
	catalogPath := filepath.Join(dir, ref.File)
	first, err := os.Stat(catalogPath)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{System: sys, Journal: filepath.Join(dir, "a.wal")})
	if err != nil {
		t.Fatal(err)
	}
	mustAdmit(t, svc, 0)
	svc.Close()
	if now, err := os.Stat(catalogPath); err != nil || !os.SameFile(first, now) {
		t.Fatalf("bootstrap rewrote an intact catalog file (stat error %v)", err)
	}

	if err := os.WriteFile(catalogPath, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err = New(Config{System: sys, Journal: filepath.Join(dir, "b.wal")})
	if err != nil {
		t.Fatal(err)
	}
	mustAdmit(t, svc, 0)
	want := stateOf(t, svc)
	svc.Close()
	rec, _, err := Recover(filepath.Join(dir, "b.wal"), Config{})
	if err != nil {
		t.Fatalf("recover after bootstrap replaced a bad catalog file: %v", err)
	}
	defer rec.Close()
	if got := stateOf(t, rec); got.Digest != want.Digest || got.Seq != want.Seq {
		t.Fatalf("recovered seq %d digest %s, want seq %d digest %s", got.Seq, got.Digest, want.Seq, want.Digest)
	}
}

// rewriteSnapshot decodes the snapshot at path, lets edit change it, and
// writes it back beside the original.
func rewriteSnapshot(t *testing.T, path string, edit func(m map[string]json.RawMessage)) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(filepath.Dir(path), "edited.json")
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// What feeds the catalog on restore is checked before any allocation is
// built: the scale vector defines demand, and the catalog reference names a
// file whose bytes must be the pinned ones and a valid system.
func TestRestoreValidatesScaleAndCatalog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	svc := newTestService(t, 4, Config{})
	mustAdmit(t, svc, 0)
	mustRescale(t, svc, 1, 1.5)
	resp, err := svc.Snapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(resp.Catalog) != dir || len(catalogFiles(t, dir)) != 1 || catalogFiles(t, dir)[0] != resp.Catalog {
		t.Fatalf("snapshot reports catalog %s; directory holds %v", resp.Catalog, catalogFiles(t, dir))
	}
	catalogData, err := os.ReadFile(resp.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	catalogSum := hashHex(catalogData)
	raw := func(v any) json.RawMessage {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	for _, tc := range []struct {
		name string
		edit func(m map[string]json.RawMessage)
		want []string // substrings of the error
	}{
		{"zero scale", func(m map[string]json.RawMessage) { m["scale"] = raw([]float64{1, 0, 1, 1}) }, []string{"scale[1] = 0"}},
		{"negative scale", func(m map[string]json.RawMessage) { m["scale"] = raw([]float64{1, 1.5, -2, 1}) }, []string{"scale[2] = -2"}},
		{"short scale", func(m map[string]json.RawMessage) { m["scale"] = raw([]float64{1, 1.5}) }, []string{"scale length 2"}},
		{"catalog path with separator", func(m map[string]json.RawMessage) {
			m["catalog"] = raw(CatalogRef{File: "../" + filepath.Base(resp.Catalog), SHA256: catalogSum})
		}, []string{"not a plain file name"}},
		{"catalog dot-dot", func(m map[string]json.RawMessage) {
			m["catalog"] = raw(CatalogRef{File: "..", SHA256: catalogSum})
		}, []string{"not a plain file name"}},
		{"catalog missing", func(m map[string]json.RawMessage) {
			m["catalog"] = raw(CatalogRef{File: "catalog-0000000000000000.json", SHA256: catalogSum})
		}, []string{filepath.Join(dir, "catalog-0000000000000000.json")}},
		{"catalog hash mismatch", func(m map[string]json.RawMessage) {
			m["catalog"] = raw(CatalogRef{File: filepath.Base(resp.Catalog), SHA256: strings.Repeat("0", 64)})
		}, []string{catalogSum, strings.Repeat("0", 64)}},
		{"catalog invalid", func(m map[string]json.RawMessage) {
			// Correctly pinned bytes that are not a valid system.
			bad := testSystem(4)
			bad.Strings[2].Period = -1
			m["catalog"] = raw(writeTestCatalog(t, dir, bad))
		}, []string{"string 2 period"}},
		{"no catalog section", func(m map[string]json.RawMessage) { delete(m, "catalog") }, []string{"missing the catalog"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Restore(rewriteSnapshot(t, path, tc.edit), Config{})
			if err == nil {
				t.Fatal("restore accepted the file")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}

	// One flipped byte in the catalog file itself: both hashes in the error.
	tampered := append([]byte(nil), catalogData...)
	tampered[len(tampered)/2] ^= 0x01
	if err := os.WriteFile(resp.Catalog, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Restore(path, Config{})
	if err == nil || !strings.Contains(err.Error(), catalogSum) || !strings.Contains(err.Error(), hashHex(tampered)) {
		t.Fatalf("restore over a tampered catalog: %v, want an error naming both hashes", err)
	}
}

// A version-1 snapshot embeds the catalog as "system" and pins none; its
// floats are running products base × scale cannot express, so it is refused
// with the typed version error rather than read.
func TestRestoreRejectsSnapshotWithEmbeddedSystem(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	svc := newTestService(t, 4, Config{})
	mustAdmit(t, svc, 0)
	if _, err := svc.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	sys, err := json.Marshal(testSystem(4))
	if err != nil {
		t.Fatal(err)
	}
	old := rewriteSnapshot(t, path, func(m map[string]json.RawMessage) {
		delete(m, "catalog")
		m["system"] = sys
		m["schemaVersion"] = json.RawMessage("1")
	})
	_, err = Restore(old, Config{})
	var sverr *SchemaVersionError
	if !errors.As(err, &sverr) || sverr.Version != 1 || sverr.Supported != SchemaVersion {
		t.Fatalf("restore of an old-format file: %v, want *SchemaVersionError{1, %d}", err, SchemaVersion)
	}
}

// Config.System beside a snapshot or a journal with history does not replace
// the pinned catalog: the same system is accepted, a different one refused
// with both hashes. Nil (what shipd passes without -in) serves the pin.
func TestRecoverChecksGivenSystemAgainstPinnedCatalog(t *testing.T) {
	svc, path := journaledService(t, 6, Config{})
	mustAdmit(t, svc, 0)
	want := stateOf(t, svc)
	svc.Close()

	other := testSystem(6)
	other.Strings[3].Worth = 42
	_, otherRef, err := encodeCatalog(other)
	if err != nil {
		t.Fatal(err)
	}
	_, pinned, err := encodeCatalog(testSystem(6))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Recover(path, Config{System: other})
	if err == nil || !strings.Contains(err.Error(), otherRef.SHA256) || !strings.Contains(err.Error(), pinned.SHA256) {
		t.Fatalf("recover with a different system: %v, want a refusal naming its hash %s and the pinned %s",
			err, otherRef.SHA256, pinned.SHA256)
	}
	if _, err := Restore(JournalSnapshotPath(path), Config{System: other}); err == nil {
		t.Fatal("restore with a different system accepted")
	}

	rec, _, err := Recover(path, Config{System: testSystem(6)})
	if err != nil {
		t.Fatalf("recover with the pinned system given explicitly: %v", err)
	}
	defer rec.Close()
	if got := stateOf(t, rec); got.Digest != want.Digest || got.Seq != want.Seq {
		t.Fatalf("recovered seq %d digest %s, want seq %d digest %s", got.Seq, got.Digest, want.Seq, want.Digest)
	}
}

// A journal whose catalog file has a flipped byte does not recover.
func TestRecoverRejectsTamperedCatalog(t *testing.T) {
	svc, path := journaledService(t, 6, Config{})
	mustAdmit(t, svc, 0)
	svc.Close()
	names := catalogFiles(t, filepath.Dir(path))
	if len(names) != 1 {
		t.Fatalf("catalog files beside the journal: %v, want one", names)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x01
	if err := os.WriteFile(names[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Recover(path, Config{})
	if err == nil || !strings.Contains(err.Error(), "sha256") {
		t.Fatalf("recover over a tampered catalog: %v, want a hash error", err)
	}
}

// The cumulative scale must stay a finite positive number: a factor that is
// fine by itself but overflows the product is a bad request, not a catalog
// of infinities.
func TestRescaleRejectsNonFiniteCumulativeScale(t *testing.T) {
	svc := newTestService(t, 4, Config{})
	mustRescale(t, svc, 1, 1e200)
	_, err := svc.Rescale(1, 1e200)
	var env *ErrorEnvelope
	if !errors.As(err, &env) || env.Err.Code != CodeBadRequest {
		t.Fatalf("overflowing rescale: %v, want %s", err, CodeBadRequest)
	}
	if got := stateOf(t, svc).StringStates[1].Scale; got != 1e200 {
		t.Fatalf("scale after refused rescale = %v, want 1e200", got)
	}
}
