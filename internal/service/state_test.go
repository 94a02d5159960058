package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/journal"
	"repro/internal/overload"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// requireStateRead requires GET /v1/state's body to be json.Marshal of
// svc.State() and a newline, byte for byte: the state's kept rows against rows
// built fresh from the live state. It returns the body.
func requireStateRead(t testing.TB, svc *Service, label string) []byte {
	t.Helper()
	rec := serve(svc.Handler(), "GET", "/v1/state", "")
	st, err := svc.State()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("%s: GET /v1/state (status %d) is not json.Marshal(State())\n got %s\nwant %s", label, rec.Code, rec.Body, want)
	}
	return rec.Body.Bytes()
}

// decodeState reads a state reply body back into a StateResponse.
func decodeState(t testing.TB, body []byte) StateResponse {
	t.Helper()
	var st StateResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// A state read is the encoded state: GET /v1/state's kept rows must read as
// the rows built fresh, byte for byte, after each kind of change a row can
// see — an admission, a rescale of an unmapped string (its row changes, the
// digest does not: no analyzer window runs), a fault that sheds strings, a
// surge that re-places them — and after a restart from a snapshot or from the
// journal, whose first read must be the live daemon's last.
func TestStateReadIsTheEncodedState(t *testing.T) {
	sys := workload.MustGenerate(workload.ScenarioConfig(workload.HighlyLoaded), 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "shipd.wal")
	svc, err := New(Config{System: sys, Journal: path, Fsync: journal.FsyncNone, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	requireStateRead(t, svc, "empty ship")
	for k := range sys.Strings {
		if _, err := svc.Admit(k); err != nil {
			t.Fatal(err)
		}
	}
	before := decodeState(t, requireStateRead(t, svc, "loaded ship"))

	u := -1
	for _, ss := range before.StringStates {
		if !ss.Mapped {
			u = ss.ID
			break
		}
	}
	if u < 0 {
		t.Fatal("the paper ship mapped every string; no unmapped string to rescale")
	}
	if d, err := svc.Rescale(u, 1.25); err != nil || !d.Accepted {
		t.Fatalf("rescale of unmapped string %d: %+v, %v", u, d, err)
	}
	after := decodeState(t, requireStateRead(t, svc, "unmapped rescale"))
	if after.Digest != before.Digest {
		t.Errorf("rescaling unmapped string %d moved the digest %s -> %s", u, before.Digest, after.Digest)
	}
	if after.StringStates[u].Scale == before.StringStates[u].Scale {
		t.Errorf("rescaling unmapped string %d left its row's scale at %v", u, after.StringStates[u].Scale)
	}

	before = after
	d, err := svc.Faults(FaultsRequest{Fail: []faults.Resource{faults.Machine(0), faults.Machine(1), faults.Machine(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Evacuated) == 0 {
		t.Fatalf("the fault evacuated no string: %+v", d.Actions)
	}
	after = decodeState(t, requireStateRead(t, svc, "fault"))
	if after.MappedCount >= before.MappedCount {
		t.Errorf("the fault left %d strings mapped, %d before", after.MappedCount, before.MappedCount)
	}
	if _, err := svc.Faults(FaultsRequest{Repair: []faults.Resource{faults.Machine(0), faults.Machine(1), faults.Machine(2)}}); err != nil {
		t.Fatal(err)
	}
	requireStateRead(t, svc, "repair")

	before = decodeState(t, requireStateRead(t, svc, "before surge"))
	if _, err := svc.Surge(&overload.Scenario{Name: "state-read", Events: []overload.Event{
		{Kind: overload.Step, At: 0, Duration: 30, Factor: 1.3}}}); err != nil {
		t.Fatal(err)
	}
	after = decodeState(t, requireStateRead(t, svc, "surge"))
	moved := 0
	for k := range after.StringStates {
		b, a := &before.StringStates[k], &after.StringStates[k]
		if a.Mapped && b.Mapped && !reflect.DeepEqual(a.Machines, b.Machines) {
			moved++
		}
	}
	if moved == 0 {
		t.Error("the surge re-placed no string that stayed mapped")
	}

	snap := filepath.Join(dir, "state.json")
	if _, err := svc.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	live := requireStateRead(t, svc, "live")
	restored, err := Restore(snap, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := requireStateRead(t, restored, "restored"); !bytes.Equal(got, live) {
		t.Errorf("restored daemon reads\n%s\nthe live one\n%s", got, live)
	}
	svc.Close()
	recovered, _, err := Recover(path, Config{CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := requireStateRead(t, recovered, "recovered"); !bytes.Equal(got, live) {
		t.Errorf("recovered daemon reads\n%s\nthe live one\n%s", got, live)
	}
}

// A state read counts no analyzer evaluation: its feasible bit is the
// committed verdict, so reads between ops leave every feasibility.delta
// counter — evaluations, dirty and recheck sizes, checks — where the ops left
// it, and the per-evaluation ratios are the ops' alone.
func TestStateReadCountsNoEvaluation(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	svc := newTestService(t, 8, Config{})
	for k := 0; k < 8; k++ {
		mustAdmit(t, svc, k)
	}
	if d, err := svc.Rescale(3, 500); err != nil || d.Accepted {
		t.Fatalf("500x rescale should be rejected: %v %+v", err, d)
	}
	delta := func() map[string]int64 {
		out := map[string]int64{}
		for name, v := range telemetry.Capture().Counters {
			if strings.HasPrefix(name, "feasibility.delta.") {
				out[name] = v
			}
		}
		return out
	}
	was := delta()
	if was["feasibility.delta.evals"] == 0 {
		t.Fatal("the ops counted no evaluation; the counters are not wired")
	}
	requireStateRead(t, svc, "read")
	if now := delta(); !reflect.DeepEqual(now, was) {
		t.Errorf("a state read moved the analyzer's counters:\n was %v\n now %v", was, now)
	}
}
