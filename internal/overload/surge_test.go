package overload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestEventFactorAtStep(t *testing.T) {
	e := Event{Kind: Step, At: 10, Duration: 5, Factor: 2.5}
	for _, tc := range []struct{ t, want float64 }{
		{0, 1}, {9.99, 1}, {10, 2.5}, {12, 2.5}, {14.999, 2.5}, {15, 1}, {100, 1},
	} {
		if got := e.FactorAt(tc.t); got != tc.want {
			t.Errorf("step FactorAt(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestEventFactorAtRamp(t *testing.T) {
	e := Event{Kind: Ramp, At: 10, Duration: 10, Factor: 3, Rise: 4}
	for _, tc := range []struct{ t, want float64 }{
		{9, 1}, {10, 1}, {11, 1.5}, {12, 2}, {14, 3}, {19.9, 3}, {20, 1},
	} {
		if got := e.FactorAt(tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("ramp FactorAt(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestEventPermanentAndApplies(t *testing.T) {
	e := Event{Kind: Step, At: 5, Factor: 2}
	if !e.Permanent() || !math.IsInf(e.UpAt(), 1) {
		t.Error("zero-duration surge should be permanent")
	}
	if e.FactorAt(1e12) != 2 {
		t.Error("permanent surge should never subside")
	}
	if !e.Applies(3) {
		t.Error("empty Strings should apply to every string")
	}
	scoped := Event{Kind: Step, At: 0, Factor: 2, Strings: []int{1, 4}}
	if scoped.Applies(0) || !scoped.Applies(4) {
		t.Error("scoped event applied to the wrong strings")
	}
}

func TestScenarioFactorAtMultipliesActiveEvents(t *testing.T) {
	sc := &Scenario{Events: []Event{
		{Kind: Step, At: 0, Duration: 20, Factor: 2},
		{Kind: Step, At: 10, Duration: 20, Factor: 3, Strings: []int{0}},
	}}
	if got := sc.FactorAt(15, 0); got != 6 {
		t.Errorf("overlapping factors = %v, want 6", got)
	}
	if got := sc.FactorAt(15, 1); got != 2 {
		t.Errorf("unscoped-only factor = %v, want 2", got)
	}
	fs := sc.FactorsAt(15, 2)
	if fs[0] != 6 || fs[1] != 2 {
		t.Errorf("FactorsAt = %v", fs)
	}
}

func TestScenarioBreakpointsAndHorizon(t *testing.T) {
	sc := &Scenario{Events: []Event{
		{Kind: Ramp, At: 5, Duration: 10, Factor: 2, Rise: 3},
		{Kind: Step, At: 5, Duration: 7, Factor: 2},
		{Kind: Step, At: 2, Factor: 3}, // permanent: no end time
	}}
	want := []float64{2, 5, 8, 12, 15}
	got := sc.Breakpoints()
	if len(got) != len(want) {
		t.Fatalf("breakpoints %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("breakpoints %v, want %v", got, want)
		}
	}
	if h := sc.Horizon(); h != 15 {
		t.Errorf("horizon %v, want 15", h)
	}
	if (&Scenario{}).Horizon() != 0 {
		t.Error("empty scenario horizon should be 0")
	}
}

func TestScenarioValidatePerEventErrors(t *testing.T) {
	bad := []struct {
		name string
		ev   Event
		frag string
	}{
		{"kind", Event{Kind: "spike", At: 0, Factor: 2}, "unknown surge kind"},
		{"negative time", Event{Kind: Step, At: -1, Factor: 2}, "want finite non-negative"},
		{"nan duration", Event{Kind: Step, At: 0, Duration: math.NaN(), Factor: 2}, "want finite"},
		{"zero factor", Event{Kind: Step, At: 0, Factor: 0}, "want finite positive"},
		{"negative rise", Event{Kind: Ramp, At: 0, Factor: 2, Rise: -1}, "rise"},
		{"string range", Event{Kind: Step, At: 0, Factor: 2, Strings: []int{9}}, "out of range"},
	}
	for _, tc := range bad {
		sc := &Scenario{Events: []Event{{Kind: Step, At: 0, Factor: 2}, tc.ev}}
		err := sc.Validate(3)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "event 1") || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: error %q should name event 1 and contain %q", tc.name, err, tc.frag)
		}
	}
}

func TestScenarioValidateRejectsDuplicateIDs(t *testing.T) {
	sc := &Scenario{Events: []Event{
		{ID: "surge-a", Kind: Step, At: 0, Factor: 2},
		{ID: "surge-b", Kind: Step, At: 1, Factor: 2},
		{ID: "surge-a", Kind: Step, At: 2, Factor: 2},
	}}
	err := sc.Validate(0)
	if err == nil {
		t.Fatal("duplicate event IDs accepted")
	}
	for _, frag := range []string{"event 2", `"surge-a"`, "event 0"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q should contain %q", err, frag)
		}
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := &Scenario{Name: "rt", Seed: 9, Events: []Event{
		{ID: "e0", Kind: Ramp, At: 1, Duration: 4, Factor: 2.5, Rise: 2, Strings: []int{0, 2}},
		{Kind: Step, At: 3, Factor: 0.5},
	}}
	a, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(a)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Errorf("round trip changed the scenario:\n%s\n%s", a, b)
	}
}

// The last five loaded at the parent of the one-pass reader, as something
// other than what they say: the case variant or the last duplicate won, so
// the first two surged at 1.1 and the third loaded zero events.
func TestParseScenarioRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"{",
		`{"events":[{"kind":"step","at":-5,"factor":2}]}`,
		`{"events":[{"kind":"step","at":0,"factor":2,"id":"x"},{"kind":"step","at":0,"factor":2,"id":"x"}]}`,
		`{"events":[{"kind":"step","at":0,"factor":9,"Factor":1.1}]}`,
		`{"events":[{"kind":"step","at":0,"factor":9,"factor":1.1}]}`,
		`{"Events":[{"kind":"step","at":0,"factor":2}],"events":[]}`,
		`{"version":1,"version":0,"events":[]}`,
		`{"events":[{"kind":"step","at":0,"factor":2,"strings":null}]}`,
	} {
		if sc, err := Parse([]byte(bad)); err == nil {
			t.Errorf("Parse accepted %q as %+v", bad, sc)
		}
	}
}

func TestBurstSampleDeterministic(t *testing.T) {
	b := DefaultBurst()
	s1, err := b.Sample(10, 77)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := b.Sample(10, 77)
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := json.Marshal(s1)
	a2, _ := json.Marshal(s2)
	if !bytes.Equal(a1, a2) {
		t.Error("same seed produced different scenarios")
	}
	s3, err := b.Sample(10, 78)
	if err != nil {
		t.Fatal(err)
	}
	a3, _ := json.Marshal(s3)
	if bytes.Equal(a1, a3) {
		t.Error("different seeds produced identical scenarios")
	}
	if err := s1.Validate(10); err != nil {
		t.Errorf("sampled scenario invalid: %v", err)
	}
	if len(s1.Events) != b.Bursts {
		t.Errorf("%d events, want %d", len(s1.Events), b.Bursts)
	}
}

func TestBurstValidate(t *testing.T) {
	bad := []Burst{
		{Bursts: -1, Window: 10, MaxFactor: 2, MeanDuration: 5},
		{Bursts: 1, Window: -1, MaxFactor: 2, MeanDuration: 5},
		{Bursts: 1, Window: 10, MaxFactor: 0.5, MeanDuration: 5},
		{Bursts: 1, Window: 10, MaxFactor: 2, MeanDuration: 0},
		{Bursts: 1, Window: 10, MaxFactor: 2, MeanDuration: 5, GlobalProb: 1.5},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: bad burst config accepted", i)
		}
	}
	if _, err := DefaultBurst().Sample(0, 1); err == nil {
		t.Error("sampling for zero strings accepted")
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

// FuzzParseSurgeScenario: arbitrary bytes must either parse into a scenario
// that passes structural validation or return an error — never panic, and
// never yield a scenario whose factors are unusable (non-finite, negative).
// And whatever Parse accepts, a strict json.Decoder reads the same: equal
// values, nil slices told from empty ones, every float by its bits (their
// json.Marshal is equal).
func FuzzParseSurgeScenario(f *testing.F) {
	f.Add([]byte(`{"name":"s","events":[{"kind":"step","at":1,"duration":2,"factor":3}]}`))
	f.Add([]byte(`{"events":[{"kind":"ramp","at":0,"factor":2,"rise":1,"strings":[0,1]}]}`))
	f.Add([]byte(`{"events":[{"id":"a","kind":"step","at":0,"factor":0.5}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"events":[{"kind":"step","at":-1,"factor":2}]}`))
	if data, err := os.ReadFile("../../examples/overload/surge.json"); err == nil {
		f.Add(data)
	} else {
		f.Fatal(err)
	}
	b := DefaultBurst()
	for seed := int64(1); seed <= 4; seed++ {
		sc, err := b.Sample(12, seed)
		if err != nil {
			f.Fatal(err)
		}
		sc.Name, sc.Seed, sc.Events[0].ID = "burst \"<&>\" ∆", seed, "e \x01"
		data, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{`{"events":null}`, `{"events":[]}`, `{"version":1,"name":"","seed":-3,"events":[]}`,
		`{"events":[{"kind":"step","at":0,"factor":9,"Factor":1.1}]}`, `{"Events":[{"kind":"step","at":0,"factor":2}],"events":[]}`,
		`{"version":1,"version":0}`, `{"events":[{"kind":"step","at":0,"factor":2,"strings":[]}]}`,
		`{"events":[{"kind":"step","at":-0.0,"factor":1e-7,"duration":1E2,"rise":0}]}`, ` {"name" : "😀é\"\\\/"} `,
		`{"name":"\ud800"}`, "{\"name\":\"\xff\"}", `{"events":[{"kind":"step","at":0,"factor":2}]}`} {
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
		// A parsed scenario must re-validate and produce sane factors.
		if verr := sc.Validate(0); verr != nil {
			t.Fatalf("scenario.Parse returned a scenario that fails Validate: %v", verr)
		}
		for _, bp := range sc.Breakpoints() {
			if math.IsNaN(bp) || math.IsInf(bp, 0) {
				t.Fatalf("non-finite breakpoint %v", bp)
			}
			for k := -1; k <= 2; k++ {
				f := sc.FactorAt(bp, k)
				if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
					t.Fatalf("factor %v at t=%v, k=%d", f, bp, k)
				}
			}
		}
	})
}
