package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/feasibility"
	"repro/internal/model"
	"repro/internal/overload"
	"repro/internal/telemetry"
)

// testSystem builds m uniform machines and m two-app pipelined strings, the
// same shape the delta-analyzer benchmarks use: every string fits easily, so
// admission outcomes are decided by the analysis, not by capacity accidents.
func testSystem(m int) *model.System {
	sys := model.NewUniformSystem(m, 100)
	for k := 0; k < m; k++ {
		sys.AddString(model.AppString{
			Worth:      1 + float64(k%7),
			Period:     100,
			MaxLatency: 500,
			Apps: []model.Application{
				model.UniformApp(m, 1.0, 0.2, 10),
				model.UniformApp(m, 1.0, 0.2, 10),
			},
		})
	}
	return sys
}

func newTestService(t testing.TB, m int, cfg Config) *Service {
	t.Helper()
	cfg.System = testSystem(m)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func mustAdmit(t testing.TB, svc *Service, k int) Decision {
	t.Helper()
	d, err := svc.Admit(k)
	if err != nil {
		t.Fatalf("admit %d: %v", k, err)
	}
	if !d.Accepted {
		t.Fatalf("admit %d rejected: %s", k, d.Reason)
	}
	return d
}

func digestOf(t testing.TB, svc *Service) string {
	t.Helper()
	st, err := svc.State()
	if err != nil {
		t.Fatal(err)
	}
	return st.Digest
}

// TestNewRefusesUnknownHeuristic: a mistyped initial heuristic (shipd
// -heuristic) is an error from New, returned before anything starts: no
// service, and no journal written.
func TestNewRefusesUnknownHeuristic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	svc, err := New(Config{System: testSystem(4), Heuristic: "Bogus", Journal: path})
	if err == nil || svc != nil {
		t.Fatalf("New with heuristic Bogus: svc %v, err %v; want an error and no service", svc, err)
	}
	if msg := err.Error(); !strings.Contains(msg, "initial mapping") || !strings.Contains(msg, `unknown heuristic "Bogus"`) {
		t.Errorf("error %q does not name the initial mapping and the heuristic", msg)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("refused New left a journal behind (stat: %v)", err)
	}
}

func TestAdmitRemoveRescaleLifecycle(t *testing.T) {
	svc := newTestService(t, 6, Config{})
	for k := 0; k < 6; k++ {
		d := mustAdmit(t, svc, k)
		if d.Mapped != k+1 {
			t.Fatalf("after admit %d: mapped = %d, want %d", k, d.Mapped, k+1)
		}
		if d.Seq != uint64(k+1) {
			t.Fatalf("after admit %d: seq = %d, want %d", k, d.Seq, k+1)
		}
	}
	st, err := svc.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.MappedCount != 6 || !st.Feasible {
		t.Fatalf("state after full admission: mapped %d, feasible %v", st.MappedCount, st.Feasible)
	}
	if st.Worth != st.TotalWorth {
		t.Fatalf("worth %v != total worth %v with everything mapped", st.Worth, st.TotalWorth)
	}

	d, err := svc.Remove(3)
	if err != nil || !d.Accepted {
		t.Fatalf("remove: %v %+v", err, d)
	}
	if d.WorthAfter >= d.WorthBefore {
		t.Fatalf("remove did not lower worth: %v -> %v", d.WorthBefore, d.WorthAfter)
	}

	d, err = svc.Rescale(3, 1.5)
	if err != nil || !d.Accepted {
		t.Fatalf("rescale of unmapped string: %v %+v", err, d)
	}
	d = mustAdmit(t, svc, 3)
	if d.Mapped != 6 {
		t.Fatalf("re-admit after rescale: mapped = %d, want 6", d.Mapped)
	}
}

// A rejected operation must leave the state bit-identical: same digest, and
// for a rescale the same demand floats — recomputed from the base catalog at
// the scale in force, with nothing saved to copy back.
func TestRejectedOpsRollBackBitIdentically(t *testing.T) {
	svc := newTestService(t, 5, Config{})
	for k := 0; k < 5; k++ {
		mustAdmit(t, svc, k)
	}
	mustRescale(t, svc, 2, 1.1) // string 2 sits at a non-trivial scale
	before := digestOf(t, svc)
	viewBefore, _ := viewOf(t, svc)

	// Demand 50x the machine capacity: the rescale must be rejected.
	d, err := svc.Rescale(2, 250)
	if err != nil {
		t.Fatal(err)
	}
	if d.Accepted {
		t.Fatal("250x rescale accepted")
	}
	if got := digestOf(t, svc); got != before {
		t.Fatalf("digest changed across rejected rescale: %s -> %s", before, got)
	}
	if view, _ := viewOf(t, svc); !equalBits(view, viewBefore) {
		t.Fatal("demand floats changed across rejected rescale")
	}
	if got := stateOf(t, svc).StringStates[2].Scale; got != 1.1 {
		t.Fatalf("scale changed across rejected rescale: 1.1 -> %v", got)
	}

	// An admission that cannot be placed must also roll back exactly.
	if _, err := svc.Remove(2); err != nil {
		t.Fatal(err)
	}
	if d, err = svc.Rescale(2, 250); err != nil || !d.Accepted {
		t.Fatalf("rescale of unmapped string: %v %+v", err, d)
	}
	mid := digestOf(t, svc)
	if d, err = svc.Admit(2); err != nil {
		t.Fatal(err)
	}
	if d.Accepted {
		t.Fatal("admission of 250x-scaled string accepted")
	}
	if d.Reason == "" {
		t.Fatal("rejected admission carries no reason")
	}
	if got := digestOf(t, svc); got != mid {
		t.Fatalf("digest changed across rejected admit: %s -> %s", mid, got)
	}
}

func TestOperationErrors(t *testing.T) {
	svc := newTestService(t, 4, Config{})
	mustAdmit(t, svc, 0)

	cases := []struct {
		name string
		call func() error
		code string
	}{
		{"admit out of range", func() error { _, err := svc.Admit(99); return err }, CodeUnknownString},
		{"admit negative", func() error { _, err := svc.Admit(-1); return err }, CodeUnknownString},
		{"double admit", func() error { _, err := svc.Admit(0); return err }, CodeConflict},
		{"remove unmapped", func() error { _, err := svc.Remove(2); return err }, CodeConflict},
		{"rescale zero factor", func() error { _, err := svc.Rescale(1, 0); return err }, CodeBadRequest},
		{"rescale NaN guard", func() error { _, err := svc.Rescale(1, -2); return err }, CodeBadRequest},
		{"fault unknown machine", func() error {
			_, err := svc.Faults(FaultsRequest{Fail: []faults.Resource{faults.Machine(77)}})
			return err
		}, CodeUnknownResource},
		{"fault self-loop route", func() error {
			_, err := svc.Faults(FaultsRequest{Fail: []faults.Resource{faults.Route(1, 1)}})
			return err
		}, CodeUnknownResource},
	}
	for _, tc := range cases {
		err := tc.call()
		env, ok := err.(*ErrorEnvelope)
		if !ok {
			t.Errorf("%s: error = %v, want envelope", tc.name, err)
			continue
		}
		if env.Err.Code != tc.code {
			t.Errorf("%s: code = %s, want %s", tc.name, env.Err.Code, tc.code)
		}
	}
}

func TestFaultsEvacuateAndMask(t *testing.T) {
	svc := newTestService(t, 6, Config{})
	for k := 0; k < 6; k++ {
		mustAdmit(t, svc, k)
	}
	d, err := svc.Faults(FaultsRequest{Fail: []faults.Resource{faults.Machine(0)}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Op != "faults" || !d.Accepted {
		t.Fatalf("fault decision: %+v", d)
	}
	st, err := svc.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.MachinesDown != 1 {
		t.Fatalf("machines down = %d, want 1", st.MachinesDown)
	}
	for _, ss := range st.StringStates {
		for _, j := range ss.Machines {
			if j == 0 {
				t.Fatalf("string %d still uses failed machine 0", ss.ID)
			}
		}
	}
	// New admissions must respect the mask too: re-admit anything evacuated.
	for _, ss := range st.StringStates {
		if !ss.Mapped {
			if d, err := svc.Admit(ss.ID); err == nil && d.Accepted {
				st2, _ := svc.State()
				for _, j := range st2.StringStates[ss.ID].Machines {
					if j == 0 {
						t.Fatalf("post-fault admission of %d used failed machine 0", ss.ID)
					}
				}
			}
		}
	}
	// Repair brings the machine back.
	if _, err := svc.Faults(FaultsRequest{Repair: []faults.Resource{faults.Machine(0)}}); err != nil {
		t.Fatal(err)
	}
	st, err = svc.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.MachinesDown != 0 {
		t.Fatalf("machines down after repair = %d, want 0", st.MachinesDown)
	}
}

func TestSurgeEpisode(t *testing.T) {
	svc := newTestService(t, 6, Config{})
	for k := 0; k < 6; k++ {
		mustAdmit(t, svc, k)
	}
	sc := &overload.Scenario{
		Name: "test-swell",
		Events: []overload.Event{
			{Kind: overload.Step, At: 0, Duration: 30, Factor: 1.5},
		},
	}
	d, err := svc.Surge(sc)
	if err != nil {
		t.Fatal(err)
	}
	if d.Op != "surge" || !d.Accepted {
		t.Fatalf("surge decision: %+v", d)
	}
	if d.WorthRetained <= 0 || d.WorthRetained > 1+1e-9 {
		t.Fatalf("surge retained = %v, want (0,1]", d.WorthRetained)
	}
	st, err := svc.State()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Feasible {
		t.Fatal("post-surge state infeasible")
	}
	// Out-of-range strings in the scenario are rejected up front.
	bad := &overload.Scenario{Events: []overload.Event{
		{Kind: overload.Step, At: 0, Factor: 2, Strings: []int{99}},
	}}
	_, err = svc.Surge(bad)
	env, ok := err.(*ErrorEnvelope)
	if !ok || env.Err.Code != CodeUnknownString {
		t.Fatalf("surge with unknown string: %v", err)
	}
}

// The acceptance criterion: the serve path runs zero full re-analyses. The
// analyzer rebases exactly once, when the service attaches it at startup;
// admits, removes and rescales are incremental evaluations, and a state read
// is none (TestStateReadCountsNoEvaluation).
func TestServePathNeverRebases(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	svc := newTestService(t, 8, Config{})

	base := telemetry.Capture()
	rebases0 := base.Counter("feasibility.delta.rebases")
	evals0 := base.Counter("feasibility.delta.evals")

	for k := 0; k < 8; k++ {
		mustAdmit(t, svc, k)
	}
	if _, err := svc.Remove(5); err != nil {
		t.Fatal(err)
	}
	if d, err := svc.Rescale(2, 1.2); err != nil || !d.Accepted {
		t.Fatalf("rescale: %v %+v", err, d)
	}
	if d, err := svc.Rescale(3, 500); err != nil || d.Accepted {
		t.Fatalf("500x rescale should be rejected: %v %+v", err, d)
	}
	if _, err := svc.State(); err != nil {
		t.Fatal(err)
	}

	snap := telemetry.Capture()
	if got := snap.Counter("feasibility.delta.rebases"); got != rebases0 {
		t.Errorf("serve path rebased the analyzer: %d -> %d", rebases0, got)
	}
	if got := snap.Counter("feasibility.delta.evals"); got <= evals0 {
		t.Errorf("delta evals did not grow (%d -> %d); serve path is not using the delta analyzer", evals0, got)
	}
	if snap.Counter("feasibility.delta.commits") == 0 {
		t.Error("no delta commits recorded")
	}
	if snap.Counter("feasibility.delta.undos") == 0 {
		t.Error("no delta undos recorded (the rejected rescale must roll back via Undo)")
	}
}

func TestSnapshotRestoreResumesBitIdentically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")

	svc := newTestService(t, 6, Config{})
	for k := 0; k < 5; k++ {
		mustAdmit(t, svc, k)
	}
	if d, err := svc.Rescale(1, 1.25); err != nil || !d.Accepted {
		t.Fatalf("rescale: %v %+v", err, d)
	}
	if _, err := svc.Faults(FaultsRequest{Fail: []faults.Resource{faults.Machine(4)}}); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Snapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Digest != digestOf(t, svc) {
		t.Fatal("snapshot digest differs from live state digest")
	}

	restored, err := Restore(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	stA, err := svc.State()
	if err != nil {
		t.Fatal(err)
	}
	stB, err := restored.State()
	if err != nil {
		t.Fatal(err)
	}
	if stA.Digest != stB.Digest {
		t.Fatalf("restored digest %s != original %s", stB.Digest, stA.Digest)
	}
	if stB.Seq != stA.Seq {
		t.Fatalf("restored seq %d != original %d", stB.Seq, stA.Seq)
	}
	if stB.MachinesDown != 1 {
		t.Fatalf("restored outage set lost: machines down = %d, want 1", stB.MachinesDown)
	}
	if stB.StringStates[1].Scale != stA.StringStates[1].Scale {
		t.Fatalf("restored scale %v != original %v", stB.StringStates[1].Scale, stA.StringStates[1].Scale)
	}

	// The restored daemon must behave bit-identically from here on: the same
	// operation sequence on both sides keeps the digests equal.
	ops := func(s *Service) {
		t.Helper()
		mustAdmit(t, s, 5)
		if _, err := s.Remove(0); err != nil {
			t.Fatal(err)
		}
		if d, err := s.Rescale(2, 0.8); err != nil || !d.Accepted {
			t.Fatalf("rescale: %v %+v", err, d)
		}
	}
	ops(svc)
	ops(restored)
	if a, b := digestOf(t, svc), digestOf(t, restored); a != b {
		t.Fatalf("digests diverged after identical post-restore operations: %s vs %s", a, b)
	}
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	svc := newTestService(t, 4, Config{})
	mustAdmit(t, svc, 0)
	if _, err := svc.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Every splice must hit: a pattern the compact encoding no longer contains
	// would leave a valid file and test nothing.
	write := func(mutate func(string) string) string {
		p := filepath.Join(dir, "corrupt.json")
		mutated := mutate(string(data))
		if mutated == string(data) {
			t.Fatal("corruption pattern not found in the snapshot file")
		}
		if err := os.WriteFile(p, []byte(mutated), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Flip the recorded digest: restore must refuse to resume a state it
	// cannot reproduce exactly.
	bad := write(func(s string) string {
		st, err := svc.State()
		if err != nil {
			t.Fatal(err)
		}
		return replaceOnce(s, `"digest":"`+st.Digest, `"digest":"0123456789abcdef`)
	})
	if _, err := Restore(bad, Config{}); err == nil {
		t.Fatal("restore accepted a snapshot with a mismatched digest")
	}
	// Unsupported schema version: typed error, not a generic decode failure.
	bad = write(func(s string) string {
		return replaceOnce(s, fmt.Sprintf(`"schemaVersion":%d`, SchemaVersion),
			fmt.Sprintf(`"schemaVersion":%d`, SchemaVersion+100))
	})
	_, err = Restore(bad, Config{})
	var sverr *SchemaVersionError
	if !errors.As(err, &sverr) {
		t.Fatalf("future schema version error = %v, want *SchemaVersionError", err)
	}
	if sverr.Version != SchemaVersion+100 || sverr.Supported != SchemaVersion {
		t.Fatalf("SchemaVersionError = %+v", sverr)
	}
	// Unsupported allocation snapshot version inside a valid schema: the
	// typed feasibility error must surface through Restore's wrapping.
	bad = write(func(s string) string {
		return replaceOnce(s, fmt.Sprintf(`"version":%d`, feasibility.SnapshotVersion),
			fmt.Sprintf(`"version":%d`, feasibility.SnapshotVersion+7))
	})
	_, err = Restore(bad, Config{})
	var averr *feasibility.SnapshotVersionError
	if !errors.As(err, &averr) {
		t.Fatalf("future alloc snapshot version error = %v, want *feasibility.SnapshotVersionError", err)
	}
	// Garbage file.
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bad, Config{}); err == nil {
		t.Fatal("restore accepted malformed JSON")
	}
}

// TestRestoreLegacySnapshotWithMappedField: the allocation is the mapped set,
// so a "mapped" array beside it (as files written before it became one carried)
// is a section the reader does not know. Such a file must restore to the same
// state: the section is ignored, not an error.
func TestRestoreLegacySnapshotWithMappedField(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	svc := newTestService(t, 4, Config{})
	mustAdmit(t, svc, 0)
	mustAdmit(t, svc, 2)
	if _, err := svc.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy := replaceOnce(string(data), `"scale":[`, `"mapped":[true,false,true,false],"scale":[`)
	if legacy == string(data) {
		t.Fatal("snapshot has no scale section to splice the legacy mapped array before")
	}
	legacyPath := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacyPath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(legacyPath, Config{})
	if err != nil {
		t.Fatalf("restore of a snapshot with a legacy mapped section: %v", err)
	}
	defer restored.Close()
	if a, b := digestOf(t, svc), digestOf(t, restored); a != b {
		t.Fatalf("restored digest %s != original %s", b, a)
	}
	st, err := restored.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.MappedCount != 2 || !st.StringStates[0].Mapped || st.StringStates[1].Mapped || !st.StringStates[2].Mapped {
		t.Fatalf("restored mapped set wrong: count %d, states %+v", st.MappedCount, st.StringStates)
	}
}

// TestRestoreRejectsPartiallyPlacedString: no operation leaves a string with
// only some of its applications placed, so a snapshot describing one — even
// with a digest that matches — is refused rather than served.
func TestRestoreRejectsPartiallyPlacedString(t *testing.T) {
	sys := testSystem(4)
	dir := t.TempDir()
	alloc := feasibility.New(sys)
	alloc.AssignString(0, []int{0, 1})
	alloc.Assign(1, 0, 2) // string 1: one of two applications
	file := SnapshotFile{
		SchemaVersion: SchemaVersion,
		Catalog:       writeTestCatalog(t, dir, sys),
		Alloc:         alloc.Snapshot(),
		Scale:         unitScales(len(sys.Strings)),
		Digest:        feasibility.StateDigest(alloc),
	}
	data, err := json.Marshal(&file)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "partial.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Restore(path, Config{})
	if err == nil || !strings.Contains(err.Error(), "string 1 is partially placed") {
		t.Fatalf("restore error = %v, want a partially-placed rejection for string 1", err)
	}
}

// TestRestoreRefusesMovedApplication: the allocation section is the mapping
// alone, so a file whose mapping is not the state it records — one application
// of a mapped string moved, the recorded digest kept — is refused by the
// digest, and the error names the recorded value. The same file re-encoded
// without the move restores.
func TestRestoreRefusesMovedApplication(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	svc := newTestService(t, 4, Config{})
	mustAdmit(t, svc, 0)
	mustAdmit(t, svc, 1)
	if _, err := svc.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	file, err := loadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string) string {
		t.Helper()
		data, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	restored, err := Restore(write("same.json"), Config{})
	if err != nil {
		t.Fatalf("restore of the re-encoded snapshot: %v", err)
	}
	restored.Close()

	machines := file.Alloc.Strings[1].Machines
	machines[1] = (machines[1] + 1) % 4
	_, err = Restore(write("moved.json"), Config{})
	if err == nil || !strings.Contains(err.Error(), "does not match recorded "+file.Digest) {
		t.Fatalf("restore of a snapshot with string 1's application 1 moved: error %v, want a refusal naming digest %s", err, file.Digest)
	}
}

func replaceOnce(s, old, repl string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + repl + s[i+len(old):]
		}
	}
	return s
}

// Concurrency hammer for the single-writer state; run with -race. Writers
// fight over admissions and removals while readers poll state, events, and
// metrics; afterwards the state must still be consistent and feasible, and
// the journal — compacted and digest-checked along the way — must replay to
// the last state read: journal order is apply order.
func TestConcurrentHammer(t *testing.T) {
	const m = 8
	path := filepath.Join(t.TempDir(), "hammer.wal")
	svc := newTestService(t, m, Config{Journal: path, CompactEvery: 40, DigestEvery: 4})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (w + i) % m
				if i%2 == 0 {
					_, _ = svc.Admit(k)
				} else {
					_, _ = svc.Remove(k)
				}
				if i%13 == 0 {
					_, _ = svc.Rescale(k, 1.01)
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, _ = svc.State()
				_, _ = svc.Events(0)
				_ = svc.Metrics()
			}
		}()
	}
	wg.Wait()
	// String 0 is mapped from here on, so the late callers below only draw
	// conflicts, which are not journaled, and the next read is the last state.
	if _, err := svc.Admit(0); err != nil && !strings.Contains(err.Error(), "already mapped") {
		t.Fatal(err)
	}
	st, err := svc.State()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Feasible {
		t.Fatal("state infeasible after hammer")
	}
	if !st.StringStates[0].Mapped {
		t.Fatal("string 0 not mapped after admitting it")
	}
	mapped := 0
	for _, ss := range st.StringStates {
		if ss.Mapped {
			mapped++
		}
	}
	if mapped != st.MappedCount {
		t.Fatalf("mapped count %d disagrees with string states %d", st.MappedCount, mapped)
	}
	// Close races against late callers in real shutdowns; exercise that too.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_, _ = svc.Admit(0)
			}
		}
	}()
	svc.Close()
	close(done)
	if _, err := svc.State(); err == nil {
		t.Fatal("State succeeded after Close")
	}
	rec, rep, err := Recover(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec.Close()
	t.Logf("%d decisions, %d replayed after the last compaction", rep.FinalSeq, rep.Replayed)
	if rep.FinalSeq != st.Seq || rep.Digest != st.Digest {
		t.Fatalf("journal replays to seq %d digest %s, the last state read was seq %d digest %s",
			rep.FinalSeq, rep.Digest, st.Seq, st.Digest)
	}
}

// A panic in a state function ends the process even when its caller is a
// net/http handler, which recovers handler panics: the allocation may be left
// half mutated, and the mutex is never released. The test re-runs itself in
// a subprocess that serves a service whose event ring is gone, so the first
// admit panics inside the state, after its Commit.
func TestStatePanicEndsProcess(t *testing.T) {
	if os.Getenv("SERVICE_PANIC_CHILD") == "1" {
		svc := newTestService(t, 4, Config{})
		if err := svc.exec(func(st *state) { st.events = nil }); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(svc.Handler())
		resp, err := http.Post(srv.URL+"/v1/admit", "application/json", strings.NewReader(`{"stringId":0}`))
		if err == nil {
			resp.Body.Close()
		}
		fmt.Printf("the process survived a panicking admit (reply error %v)\n", err)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStatePanicEndsProcess$", "-test.timeout=60s")
	cmd.Env = append(os.Environ(), "SERVICE_PANIC_CHILD=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("subprocess: %v, want a non-zero exit\nstdout:\n%s\nstderr:\n%s", err, stdout.Bytes(), stderr.Bytes())
	}
	for _, want := range []string{
		"panic: service: state function panicked: runtime error: invalid memory address or nil pointer dereference",
		"(*eventLog).append",
	} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("subprocess stderr lacks %q:\n%s", want, stderr.Bytes())
		}
	}
	if strings.Contains(stdout.String(), "survived") {
		t.Errorf("subprocess stdout: %s", stdout.Bytes())
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("nil system accepted")
	}
	cfg := Config{System: testSystem(3), Overload: overload.Config{ShedBelow: 2}}
	if err := cfg.Validate(); err == nil {
		t.Error("out-of-range overload config accepted")
	}
}

// TestPostSurgeDigest pins the live state after two surge episodes on the
// scenario-1 ship (seed 1, MWF), by digest. String 0 is rescaled first, so
// the controller sees demand (base × scale) × factor; the second surge is
// permanent, so the episode ends on factors other than 1. The digest was
// first recorded from the controller that cloned the ship every tick and must
// not move when the controller's working copy changes shape. It was
// re-recorded once, when utilizations became their rosters' totals
// (9f10564982c7c9d1 before); the 52 mapped strings stayed the same.
func TestPostSurgeDigest(t *testing.T) {
	svc, err := New(Config{System: paperSystem(150, 1), Heuristic: "MWF"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	if d, err := svc.Rescale(0, 1.15); err != nil || !d.Accepted {
		t.Fatalf("rescale string 0: %v %+v", err, d)
	}
	battle, err := overload.LoadFile("../../examples/overload/surge.json")
	if err != nil {
		t.Fatal(err)
	}
	lasting := &overload.Scenario{Events: []overload.Event{
		{Kind: overload.Step, At: 5, Factor: 2.5, Strings: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
	}}
	for _, sc := range []*overload.Scenario{battle, lasting} {
		if d, err := svc.Surge(sc); err != nil || !d.Accepted {
			t.Fatalf("surge %q: %v %+v", sc.Name, err, d)
		}
	}
	st, err := svc.State()
	if err != nil {
		t.Fatal(err)
	}
	const want = "c9c186d44d493b62"
	if st.MappedCount != 52 || st.Digest != want {
		t.Errorf("post-surge state: %d mapped, digest %s; want 52, %s", st.MappedCount, st.Digest, want)
	}
}
