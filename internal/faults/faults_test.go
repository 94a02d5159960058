package faults

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestScenarioValidate(t *testing.T) {
	good := &Scenario{Events: []Event{
		{Resource: Machine(0), At: 1, Duration: 5},
		{Resource: Route(1, 2), At: 0},
	}}
	if err := good.Validate(3); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	bad := []Scenario{
		{Events: []Event{{Resource: Machine(3), At: 0}}},
		{Events: []Event{{Resource: Machine(-1), At: 0}}},
		{Events: []Event{{Resource: Route(0, 3), At: 0}}},
		{Events: []Event{{Resource: Route(1, 1), At: 0}}},
		{Events: []Event{{Resource: Resource{Kind: "disk"}, At: 0}}},
		{Events: []Event{{Resource: Machine(0), At: -1}}},
		{Events: []Event{{Resource: Machine(0), At: math.NaN()}}},
		{Events: []Event{{Resource: Machine(0), At: 0, Duration: math.Inf(1)}}},
	}
	for i := range bad {
		if err := bad[i].Validate(3); err == nil {
			t.Errorf("invalid scenario %d accepted", i)
		}
	}
}

func TestEventTiming(t *testing.T) {
	perm := Event{Resource: Machine(0), At: 3}
	if !perm.Permanent() || !math.IsInf(perm.UpAt(), 1) {
		t.Errorf("zero-duration event not permanent: up at %v", perm.UpAt())
	}
	timed := Event{Resource: Machine(0), At: 3, Duration: 4}
	if timed.Permanent() || timed.UpAt() != 7 {
		t.Errorf("timed event: permanent=%v up=%v, want false/7", timed.Permanent(), timed.UpAt())
	}
}

func TestActiveAt(t *testing.T) {
	sc := &Scenario{Events: []Event{
		{Resource: Machine(1), At: 2, Duration: 3}, // down on [2, 5)
		{Resource: Route(0, 2), At: 4},             // permanent
	}}
	for _, tc := range []struct {
		t        float64
		machine1 bool
		route02  bool
	}{
		{0, false, false}, {2, true, false}, {4.5, true, true}, {5, false, true}, {100, false, true},
	} {
		s := sc.ActiveAt(tc.t, 3)
		if s.MachineDown(1) != tc.machine1 || s.RouteDown(0, 2) != tc.route02 {
			t.Errorf("t=%v: machine1=%v route02=%v, want %v/%v",
				tc.t, s.MachineDown(1), s.RouteDown(0, 2), tc.machine1, tc.route02)
		}
	}
}

func TestCompartmentHit(t *testing.T) {
	events := CompartmentHit(4, 2, 1, 10)
	// 1 machine + 3 incident machines × 2 directions.
	if len(events) != 7 {
		t.Fatalf("%d events, want 7", len(events))
	}
	s := NewSet(4)
	for _, e := range events {
		if e.At != 1 || e.Duration != 10 {
			t.Errorf("event %v times not propagated", e)
		}
		s.Fail(e.Resource)
	}
	if !s.MachineDown(2) || s.MachineDown(0) {
		t.Error("wrong machine down")
	}
	for other := 0; other < 4; other++ {
		if other == 2 {
			continue
		}
		if !s.RouteDown(2, other) || !s.RouteDown(other, 2) {
			t.Errorf("incident route with %d not down", other)
		}
	}
	if s.RouteDown(0, 1) {
		t.Error("unrelated route down")
	}
	if s.MachinesDown() != 1 || s.RoutesDown() != 6 {
		t.Errorf("counts: %d machines, %d routes", s.MachinesDown(), s.RoutesDown())
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(3)
	if !s.Empty() {
		t.Error("new set not empty")
	}
	if s.RouteDown(1, 1) {
		t.Error("intra-machine route reported down")
	}
	s.Fail(Route(0, 1))
	if s.RouteDown(1, 0) {
		t.Error("directed failure leaked to the reverse route")
	}
	if s.Empty() || !s.Down(Route(0, 1)) || s.Down(Machine(0)) {
		t.Error("set state wrong after one route failure")
	}
}

// The down counts are kept, not scanned for: over a random walk of Fail and
// Repair (mostly of resources already in that state) they equal what
// Resources() enumerates, which still scans.
func TestSetCountsFollowFlips(t *testing.T) {
	const m = 5
	rng := rand.New(rand.NewSource(22))
	s := NewSet(m)
	for step := 0; step < 2000; step++ {
		r := Machine(rng.Intn(m))
		if rng.Intn(2) == 0 {
			r = Route(rng.Intn(m), rng.Intn(m))
		}
		if rng.Intn(2) == 0 {
			s.Fail(r)
		} else {
			s.Repair(r)
		}
		machines, routes := 0, 0
		for _, d := range s.Resources() {
			if d.Kind == MachineResource {
				machines++
			} else {
				routes++
			}
		}
		if s.MachinesDown() != machines || s.RoutesDown() != routes || s.Empty() != (machines+routes == 0) {
			t.Fatalf("step %d (%v): counts %d machines, %d routes, empty=%v; Resources() lists %d and %d",
				step, r, s.MachinesDown(), s.RoutesDown(), s.Empty(), machines, routes)
		}
	}
}

// Masks is the one place a Set becomes the IMR's two masks: nil, nil exactly
// when nothing is down (so a healthy ship's placement scans make no mask
// calls), otherwise the complement of MachineDown/RouteDown cell for cell —
// including the intra-machine "route", which never fails.
func TestMasksFollowFlips(t *testing.T) {
	const m = 4
	type flip struct {
		r    Resource
		down bool
	}
	cases := []struct {
		name  string
		flips []flip
	}{
		{"untouched", nil},
		{"one machine", []flip{{Machine(2), true}}},
		{"one route, one direction", []flip{{Route(1, 3), true}}},
		{"machine and routes", []flip{{Machine(0), true}, {Route(0, 1), true}, {Route(1, 0), true}}},
		{"failed then repaired", []flip{{Machine(1), true}, {Route(2, 3), true}, {Machine(1), false}, {Route(2, 3), false}}},
		{"partly repaired", []flip{{Machine(1), true}, {Route(2, 3), true}, {Machine(1), false}}},
		{"repair of an up resource", []flip{{Route(3, 0), false}}},
	}
	for _, tc := range cases {
		s := NewSet(m)
		for _, f := range tc.flips {
			if f.down {
				s.Fail(f.r)
			} else {
				s.Repair(f.r)
			}
		}
		machineOK, routeOK := s.Masks()
		if s.Empty() {
			if machineOK != nil || routeOK != nil {
				t.Errorf("%s: empty set returned non-nil masks", tc.name)
			}
			continue
		}
		if machineOK == nil || routeOK == nil {
			t.Errorf("%s: set with outages returned a nil mask", tc.name)
			continue
		}
		for j1 := 0; j1 < m; j1++ {
			if machineOK(j1) == s.MachineDown(j1) {
				t.Errorf("%s: machineOK(%d) = %v with MachineDown = %v", tc.name, j1, machineOK(j1), s.MachineDown(j1))
			}
			for j2 := 0; j2 < m; j2++ {
				if routeOK(j1, j2) == s.RouteDown(j1, j2) {
					t.Errorf("%s: routeOK(%d,%d) = %v with RouteDown = %v", tc.name, j1, j2, routeOK(j1, j2), s.RouteDown(j1, j2))
				}
			}
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	sc := &Scenario{Name: "hit", Seed: 42, Events: CompartmentHit(3, 1, 0, 60)}
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, loaded) {
		t.Errorf("round trip changed the scenario:\n%+v\n%+v", sc, loaded)
	}
	if err := loaded.Validate(3); err != nil {
		t.Errorf("round-tripped scenario invalid: %v", err)
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// The first six loaded at the parent of the one-pass reader, as something
// other than what they say: a case variant or the last duplicate won, so the
// first took down machine 1 and the second loaded zero events.
func TestParseRefuses(t *testing.T) {
	for _, bad := range []string{
		`{"events":[{"resource":{"kind":"machine","machine":3,"Machine":1},"at":0}]}`,
		`{"Events":[{"resource":{"kind":"machine","machine":3},"at":0}],"events":[]}`,
		`{"events":[{"resource":{"KIND":"machine","machine":3},"at":0}]}`,
		`{"events":[{"resource":{"kind":"machine","machine":3,"machine":1},"at":0}]}`,
		`{"version":1,"version":0,"events":[]}`,
		`{"events":[{"resource":{"kind":"machine","machine":3},"at":0,"id":null}]}`,
		`{"events":[{"resource":{"kind":"machine","machine":3},"at":-1}]}`,
		`{"events":[{"resource":{"kind":"machine"},"at":0}]} x`,
	} {
		if sc, err := Parse([]byte(bad)); err == nil || !strings.Contains(err.Error(), "faults: ") {
			t.Errorf("Parse(%s) = %+v, %v; want a refusal", bad, sc, err)
		}
	}
}

// strictDecode is the reference reading of a scenario document: encoding/json
// with unknown fields refused and nothing but whitespace after the value.
func strictDecode(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data: %v", err)
	}
	return nil
}

// FuzzParseFaultsScenario holds the failure-scenario reader inside
// encoding/json's language: whatever Parse accepts, a strict json.Decoder
// reads the same — equal values, nil slices told from empty ones, every float
// by its bits (their json.Marshal is equal).
func FuzzParseFaultsScenario(f *testing.F) {
	if data, err := os.ReadFile("../../examples/survivability/compartment.json"); err == nil {
		f.Add(data)
	} else {
		f.Fatal(err)
	}
	mc := MonteCarlo{CompartmentHits: 1, MachineOutages: 1, RouteOutages: 2, Window: 100, MeanDowntime: 30}
	for seed := int64(1); seed <= 3; seed++ {
		sc, err := mc.Sample(6, seed)
		if err != nil {
			f.Fatal(err)
		}
		sc.Version, sc.Events[0].ID = 1, "hit \"<&>\" é"
		data, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{`{}`, `{"events":null}`, `{"events":[]}`, `null`, `{"events":[{}]}`,
		`{"events":[{"resource":{"kind":"route","from":1,"to":2},"at":0.5,"duration":-0.0,"id":"\"😀"}]}`,
		`{"Events":[{"resource":{"kind":"machine","machine":3},"at":0}],"events":[]}`,
		`{"events":[{"resource":{"kind":"machine","machine":3,"machine":1},"at":0}]}`, ` {"seed" : -5 , "name" : "x"} `} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return
		}
		var want Scenario
		if err := strictDecode(data, &want); err != nil {
			t.Fatalf("Parse(%q) accepted what encoding/json refuses: %v", data, err)
		}
		got, _ := json.Marshal(sc)
		ref, _ := json.Marshal(&want)
		if !reflect.DeepEqual(*sc, want) || !bytes.Equal(got, ref) {
			t.Fatalf("Parse(%q) = %+v; encoding/json reads %+v", data, sc, want)
		}
	})
}

func TestMonteCarloDeterministic(t *testing.T) {
	mc := MonteCarlo{CompartmentHits: 1, MachineOutages: 2, RouteOutages: 3, Window: 100, MeanDowntime: 30}
	a, err := mc.Sample(12, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mc.Sample(12, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different scenarios")
	}
	c, err := mc.Sample(12, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Error("different seeds produced identical scenarios")
	}
	if err := a.Validate(12); err != nil {
		t.Errorf("sampled scenario invalid: %v", err)
	}
}

func TestMonteCarloCounts(t *testing.T) {
	mc := MonteCarlo{CompartmentHits: 2, MachineOutages: 1, RouteOutages: 4}
	sc, err := mc.Sample(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	set := SetFromScenario(sc, 6)
	if got := set.MachinesDown(); got != 3 {
		t.Errorf("%d machines down, want 3", got)
	}
	// 2 compartment hits fail 2·(6-1) = 10 routes each, plus 4 isolated route
	// outages that may overlap the compartment routes.
	if got := set.RoutesDown(); got < 20 || got > 24 {
		t.Errorf("%d routes down, want in [20, 24]", got)
	}
	// Window 0, MeanDowntime 0: all failures permanent at t = 0.
	for _, e := range sc.Events {
		if e.At != 0 || !e.Permanent() {
			t.Errorf("event %+v should be permanent at t=0", e)
		}
	}
}

func TestMonteCarloValidate(t *testing.T) {
	bad := []MonteCarlo{
		{CompartmentHits: -1},
		{MachineOutages: 4},                     // > 3 machines
		{CompartmentHits: 2, MachineOutages: 2}, // combined > 3 machines
		{RouteOutages: 7},                       // > 3·2 directed routes
		{Window: -1},
		{MeanDowntime: -1},
	}
	for i, mc := range bad {
		if _, err := mc.Sample(3, 1); err == nil {
			t.Errorf("invalid generator %d accepted: %+v", i, mc)
		}
	}
}

func TestSortedOrdersByTime(t *testing.T) {
	sc := &Scenario{Events: []Event{
		{Resource: Machine(0), At: 5},
		{Resource: Machine(1), At: 1},
		{Resource: Route(0, 1), At: 3},
	}}
	got := sc.Sorted()
	for i := 1; i < len(got); i++ {
		if got[i-1].At > got[i].At {
			t.Fatalf("events not sorted: %+v", got)
		}
	}
	// Original untouched.
	if sc.Events[0].At != 5 {
		t.Error("Sorted mutated the scenario")
	}
}

func TestSetRepairAndResources(t *testing.T) {
	s := NewSet(3)
	s.Fail(Machine(1))
	s.Fail(Route(0, 2))
	s.Fail(Route(2, 0))
	got := s.Resources()
	want := []Resource{Machine(1), Route(0, 2), Route(2, 0)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Resources() = %v, want %v", got, want)
	}
	s.Repair(Route(0, 2))
	if s.RouteDown(0, 2) {
		t.Error("route still down after Repair")
	}
	s.Repair(Machine(1))
	if s.MachineDown(1) {
		t.Error("machine still down after Repair")
	}
	s.Repair(Machine(1)) // repairing an up resource is a no-op
	s.Repair(Route(2, 0))
	if !s.Empty() {
		t.Errorf("set should be empty, still down: %v", s.Resources())
	}
}

func TestSetScenario(t *testing.T) {
	s := NewSet(4)
	if s.Scenario() != nil {
		t.Error("empty set should collapse to a nil scenario")
	}
	s.Fail(Machine(2))
	s.Fail(Route(1, 3))
	sc := s.Scenario()
	if sc == nil || len(sc.Events) != 2 {
		t.Fatalf("Scenario() = %+v, want 2 events", sc)
	}
	if err := sc.Validate(4); err != nil {
		t.Fatalf("collapsed scenario invalid: %v", err)
	}
	for _, e := range sc.Events {
		if !e.Permanent() || e.At != 0 {
			t.Errorf("event %+v should be a permanent outage at t=0", e)
		}
	}
	if !reflect.DeepEqual(SetFromScenario(sc, 4).Resources(), s.Resources()) {
		t.Error("Set -> Scenario -> Set round trip changed the outage set")
	}
}
