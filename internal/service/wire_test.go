package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/overload"
)

// wireFloats are the values where encoding/json's number form changes shape:
// zero of either sign, integers, both sides of the 1e-6 and 1e21 exponent
// thresholds, one- and two-digit negative exponents, subnormals, the extremes,
// and both sides of ±2^53, where the encoder stops writing integers itself.
var wireFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 7, 150, 1e15, 123456789012345678,
	0.1, 1.0714285714285714, 2.0 / 3, 1e-5, 1e-6, 0.99e-6, 1.5e-7, 1e-9, 3e-10, 2.5e-100,
	1e20, 9.99e20, 1e21, 1.5e21, 1e22, 1e100,
	5e-324, 2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	// The edges of float's integral shortcut: 2^53 itself takes the slow path,
	// and 2^60's shortest digits (1152921504606847e3) are not its integer's.
	1 << 53, -1 << 53, 1<<53 - 1, -(1<<53 - 1), 1<<53 + 2, -1e15, -150, 1 << 60, -1 << 60,
}

// wireStrings cover every escaping rule of encoding/json's string encoder.
var wireStrings = []string{
	"", "admit", "no feasible placement on surviving resources", `say "hi"`, `back\slash`,
	"a<b>c&d", "tab\there", "nl\nr\rb\bf\f", "ctl\x00\x01\x1f\x7f", "héllo wörld", "日本語", "😀",
	"bad\xffutf8", "\xc3", "trunc\xe2\x82", "sep\u2028and\u2029", "\ufffd real replacement",
}

func randFloat(r *rand.Rand) float64 {
	switch r.Intn(4) {
	case 0:
		return wireFloats[r.Intn(len(wireFloats))]
	case 1:
		return float64(r.Intn(2000) - 1000)
	case 2:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
	}
	return math.Float64frombits(r.Uint64()&^(0x7ff<<52) | uint64(r.Intn(0x7ff))<<52) // any finite bit pattern
}

func randString(r *rand.Rand) string {
	s := wireStrings[r.Intn(len(wireStrings))]
	if r.Intn(3) == 0 {
		s += wireStrings[r.Intn(len(wireStrings))]
	}
	return s
}

// maybe returns v half the time and the zero value otherwise, so every
// omitempty field is seen both present and absent.
func maybe[T any](r *rand.Rand, v T) T {
	if r.Intn(2) == 0 {
		var zero T
		return zero
	}
	return v
}

func randInts(r *rand.Rand) []int {
	out := make([]int, r.Intn(4))
	for i := range out {
		out[i] = r.Intn(300) - 1
	}
	return out
}

func randDecision(r *rand.Rand) Decision {
	d := Decision{
		SchemaVersion:    SchemaVersion,
		Seq:              r.Uint64() >> uint(r.Intn(64)),
		Op:               []string{opAdmit, opRemove, opRescale, opFaults, opSurge, randString(r)}[r.Intn(6)],
		Accepted:         r.Intn(2) == 0,
		StringID:         r.Intn(300) - 1,
		Reason:           maybe(r, randString(r)),
		WorthBefore:      randFloat(r),
		WorthAfter:       randFloat(r),
		WorthRetained:    randFloat(r),
		Slackness:        randFloat(r),
		Mapped:           r.Intn(200),
		WorthBound:       maybe(r, randFloat(r)),
		BoundWarmStarted: r.Intn(2) == 0,
		Evacuated:        maybe(r, randInts(r)),
	}
	for i := r.Intn(3); i > 0; i-- {
		d.Violations = append(d.Violations, Violation{
			StringID: r.Intn(200), Kind: randString(r), App: r.Intn(9), Value: randFloat(r), Bound: randFloat(r)})
	}
	for i := r.Intn(4); i > 0; i-- {
		d.Actions = append(d.Actions, Action{
			Time: maybe(r, randFloat(r)), StringID: r.Intn(200), Kind: randString(r), Reason: maybe(r, randString(r)),
			MovedApps: maybe(r, r.Intn(9)), CostSeconds: maybe(r, randFloat(r))})
	}
	return d
}

func randState(r *rand.Rand) StateResponse {
	s := StateResponse{
		SchemaVersion: SchemaVersion, Seq: r.Uint64() >> uint(r.Intn(64)), Machines: r.Intn(600), Strings: r.Intn(300),
		MappedCount: r.Intn(300), Worth: randFloat(r), TotalWorth: randFloat(r), Slackness: randFloat(r),
		Feasible: r.Intn(2) == 0, WorthBound: maybe(r, randFloat(r)), Digest: randString(r),
		MachinesDown: r.Intn(5), RoutesDown: r.Intn(5),
	}
	switch n := r.Intn(6); n {
	case 0: // nil: encoding/json writes null
	case 1:
		s.StringStates = []StringStatus{}
	default:
		for i := 0; i < n; i++ {
			s.StringStates = append(s.StringStates, StringStatus{
				ID: i, Mapped: r.Intn(2) == 0, Worth: randFloat(r), Scale: randFloat(r), Machines: maybe(r, randInts(r))})
		}
	}
	return s
}

// state appends s the way its encoder halves compose: the header, then
// "null}" for a nil stringStates, "[]}" for an empty one, or each row and
// "]}". The daemon composes them the same way over its kept rows
// (state.appendState), whose stringStates is never empty and non-nil.
func (w *wbuf) state(s *StateResponse) {
	w.stateHeader(s)
	if len(s.StringStates) == 0 {
		// encoding/json tells a nil slice from an empty one.
		if s.StringStates == nil {
			w.lit("null}")
		} else {
			w.lit("[]}")
		}
		return
	}
	for i := range s.StringStates {
		w.stringStatus(i, &s.StringStates[i])
	}
	w.lit("]}")
}

// randPayload draws a journal payload the way the live path makes one: the
// string ops' appended form, or json.Marshal of a faults or surge request —
// the latter with <, > and & in a name, which json.Marshal escapes once when
// the payload is made and would escape again, to no effect, as a RawMessage.
func randPayload(t *testing.T, r *rand.Rand) (op string, payload json.RawMessage) {
	t.Helper()
	var v any
	switch r.Intn(5) {
	case 0:
		return opHeader, nil
	case 1:
		op, v = opAdmit, AdmitRequest{StringID: r.Intn(300) - 1}
	case 2:
		op, v = opRescale, RescaleRequest{StringID: r.Intn(300), Factor: randFloat(r)}
	case 3:
		op, v = opFaults, FaultsRequest{Fail: []faults.Resource{faults.Machine(r.Intn(12))}, Repair: maybe(r, []faults.Resource{faults.Route(1, 2)})}
	case 4:
		op, v = opSurge, &overload.Scenario{Name: randString(r) + "<&>", Events: []overload.Event{
			{ID: randString(r), Kind: overload.Step, Strings: randInts(r), At: randFloat(r), Duration: 20, Factor: 1.3}}}
	}
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return op, payload
}

// chainNextFmt is chainNext as it was written before the append form; the
// chain values of every existing journal and snapshot came from it.
func chainNextFmt(prev string, d *Decision) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%s|%v|%d|%016x|%016x|%d|",
		prev, d.Seq, d.Op, d.Accepted, d.StringID,
		math.Float64bits(d.WorthAfter), math.Float64bits(d.Slackness), d.Mapped)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// The wire codec's contract: every encoder appends exactly encoding/json's
// bytes, and the chain hashes exactly the bytes it always did.
func TestWireMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	var w wbuf
	equal := func(what string, v any) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: json.Marshal(%+v): %v", what, v, err)
		}
		if w.err != nil {
			t.Fatalf("%s: encoder refused %+v: %v", what, v, w.err)
		}
		if !bytes.Equal(w.b, want) {
			t.Fatalf("%s differs from encoding/json\n got %s\nwant %s", what, w.b, want)
		}
	}
	chain := ""
	for i := 0; i < 20000; i++ {
		d := randDecision(r)
		w.reset()
		w.decision(&d)
		equal("decision", &d)

		if got, want := chainNext(chain, &d), chainNextFmt(chain, &d); got != want {
			t.Fatalf("chainNext(%q, %+v) = %s, the fmt form gives %s", chain, d, got, want)
		} else {
			chain = maybe(r, got) // the empty chain of a fresh journal too
		}

		s := randState(r)
		w.reset()
		w.state(&s)
		equal("state", &s)

		k, f := r.Intn(300)-1, randFloat(r)
		w.reset()
		w.stringOp(k, f, false)
		equal("admit payload", AdmitRequest{StringID: k})
		equal("remove payload", RemoveRequest{StringID: k})
		w.reset()
		w.stringOp(k, f, true)
		equal("rescale payload", RescaleRequest{StringID: k, Factor: f})

		op, payload := randPayload(t, r)
		rec := opRecord{V: SchemaVersion, Seq: r.Uint64() >> uint(r.Intn(64)), Op: op, Payload: payload,
			Accepted: r.Intn(2) == 0, Check: chainNextFmt(chain, &d), StateDigest: maybe(r, "0123456789abcdef")}
		w.reset()
		w.opRecord(&rec)
		equal("op record", &rec)
		var back opRecord
		if err := json.Unmarshal(w.b, &back); err != nil || !reflect.DeepEqual(back, rec) {
			t.Fatalf("op record does not round-trip: %v\n got %+v\nwant %+v", err, back, rec)
		}
	}

	// What JSON cannot carry is refused by both, wherever it sits.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, d := range []Decision{
			{Slackness: f}, {WorthRetained: f}, {WorthBound: f},
			{Violations: []Violation{{Value: f}}}, {Actions: []Action{{CostSeconds: f}}},
		} {
			w.reset()
			w.decision(&d)
			if _, err := json.Marshal(&d); err == nil || w.err == nil {
				t.Errorf("decision %+v: encoder error %v, json.Marshal error %v, want both set", d, w.err, err)
			}
		}
		w.reset()
		w.state(&StateResponse{StringStates: []StringStatus{{Scale: f}}})
		if w.err == nil {
			t.Errorf("state with scale %v was encoded", f)
		}
	}
}

// strictDecode is what a strict encoding/json reading of a request body is:
// unknown fields refused, and nothing but whitespace after the object.
func strictDecode(b []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if tok, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data: token %v, error %v", tok, err)
	}
	return nil
}

// FuzzParseStringOp holds the request parser inside encoding/json's language:
// whatever it accepts, a strict json.Decoder accepts with the same values bit
// for bit, and the payload journaled for it parses back to itself.
func FuzzParseStringOp(f *testing.F) {
	for _, s := range []string{
		`{"stringId":12}`, `{"stringId": 0}`, ` { "stringId" : 7 , "factor" : 1.1 } `, "{\"factor\":2,\n\t\"stringId\":3}\r\n",
		`{}`, `{"stringId":null}`, `{"stringId":1}}`, `{"stringId":1}]`, `{"STRINGID":2}`, `{"stringId":7,"stringId":2}`,
		`{"stringId":1,"factor":null}`, `{"stringId":1.0}`, `{"stringId":1e2}`, `{"stringId":-0}`, `{"stringId":01}`,
		`{"stringId":99999999999999999999}`, `{"string\u0049d":1}`, `{"stringId":1,}`, `{"stringId":1 "factor":2}`,
		`{"stringId":1,"factor":1e999}`, `{"stringId":1,"factor":-0.0}`, `{"stringId":1,"factor":1.}`, `{"stringId":1,"factor":.5}`,
		`[{"stringId":1}]`, `{"stringId":"1"}`, `{"stringId":1} {"stringId":2}`, `{"stringId":1,"bogus":true}`, "\ufeff{\"stringId\":1}",
		fmt.Sprintf(`{"stringId":%d,"factor":%g}`, 12, 0.7731/0.9513), fmt.Sprintf(`{"stringId":%d,"factor":%g}`, 149, 1.2999/0.7),
		fmt.Sprintf(`{"stringId":%d,"factor":%g}`, 3, 1e-7), fmt.Sprintf(`{"stringId":%d,"factor":%g}`, 3, 1e21), fmt.Sprintf(`{"stringId":3,"factor":%g}`, 5e-324),
		`{"stringId":3,"factor":9007199254740991}`, `{"stringId":3,"factor":9007199254740992}`, `{"stringId":3,"factor":-150}`,
		`{"stringId":3,"factor":1152921504606846976}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, rescale := range []bool{false, true} {
			k, factor, err := parseStringOp(b, rescale)
			if err != nil {
				continue
			}
			var want RescaleRequest
			if rescale {
				err = strictDecode(b, &want)
			} else {
				var req AdmitRequest
				err = strictDecode(b, &req)
				want.StringID = req.StringID
			}
			if err != nil {
				t.Fatalf("parseStringOp(%q, %v) accepted what encoding/json refuses: %v", b, rescale, err)
			}
			if k != want.StringID || math.Float64bits(factor) != math.Float64bits(want.Factor) {
				t.Fatalf("parseStringOp(%q, %v) = %d, %v; encoding/json reads %d, %v", b, rescale, k, factor, want.StringID, want.Factor)
			}
			var w wbuf
			w.stringOp(k, factor, rescale)
			k2, factor2, err := parseStringOp(w.b, rescale)
			if err != nil || w.err != nil || k2 != k || math.Float64bits(factor2) != math.Float64bits(factor) {
				t.Fatalf("payload %s of (%d, %v) parses back to (%d, %v), %v", w.b, k, factor, k2, factor2, err)
			}
		}
	})
}

// FuzzParseOpRecord holds the journal record's decoder to its encoder and to
// encoding/json: every record opRecord writes decodes to the struct that was
// encoded, and whatever else the decoder accepts that is JSON at all,
// json.Unmarshal reads the same.
func FuzzParseOpRecord(f *testing.F) {
	for i, s := range []string{
		`{"v":2,"seq":0,"op":"header","accepted":false,"check":""}`,
		`{"accepted":true,"check":"00ff00ff00ff00ff","op":"admit","payload":{"stringId":3},"rngCalls":0,"seq":7,"stateDigest":"ab","v":2}`,
		" {\n\"v\" : 2 , \"payload\" : {\"stringId\":1,\"factor\":1e-7}\t, \"op\":\"rescale\",\"seq\":18446744073709551615 }\r\n",
		`{"v":2,"x":{"a":[1,{"b":null,"c":"q\\\"\u00e9"}],"d":[]},"y":[[],{}],"z":-0.5e+3,"seq":1}`,
		`{"v":2,"SEQ":3}`, `{"v":2,"\u0073eq":3}`, "{\"v\":2,\"\u017feq\":3}", "{\"v\":2,\"\u212a\":3,\"chec\u212a\":\"x\"}", `{"v":2,"v":3}`, `{"x":1,"x":2}`,
		`{"v":null}`, `{"seq":null}`, `{"op":null}`, `{"accepted":null}`, `{"payload":null}`, `null`, `[]`, `{}`, `{"v":2}{}`, `{"v":2,}`,
		`{"seq":-1}`, `{"seq":-0}`, `{"seq":1.0}`, `{"v":2e0}`, `{"seq":18446744073709551616}`, `{"v":9223372036854775808}`, `{"v":01}`,
		`{"op":"adm\u0069t"}`, `{"op":"héllo"}`, `{"op":"bogus"}`, `{"op":""}`, `{"check":"a\tb"}`, `{"accepted":1}`, `{"accepted":"true"}`, `{"accepted":truee}`,
		`{"payload":"str"}`, `{"payload":[1,2,{"a":"]"}]}`, `{"payload":tru}`, `{"payload":{"a":1}`, `{"x":"\q"}`, "{\"x\":\"a\nb\"}",
	} {
		f.Add([]byte(s), uint64(i)<<uint(i), uint8(i), i-1, 0.7+float64(i)/3, i%2 == 0, i%3 == 0)
	}
	f.Fuzz(func(t *testing.T, raw []byte, seq uint64, pick uint8, k int, factor float64, digest, accepted bool) {
		// What the encoder writes comes back as it went in.
		rec := opRecord{V: SchemaVersion, Seq: seq, Op: opNames[int(pick)%len(opNames)], Accepted: accepted, Check: fmt.Sprintf("%016x", seq*31)}
		if digest {
			rec.StateDigest = fmt.Sprintf("%064x", k)
		}
		var v any
		switch rec.Op {
		case opAdmit, opRemove, opRescale:
			if math.IsNaN(factor) || math.IsInf(factor, 0) {
				factor = 1
			}
			var p wbuf
			p.stringOp(k, factor, rec.Op == opRescale)
			rec.Payload = p.b
		case opFaults:
			v = FaultsRequest{Fail: []faults.Resource{faults.Machine(k)}, Repair: maybe(rand.New(rand.NewSource(int64(seq))), []faults.Resource{faults.Route(1, 2)})}
		case opSurge:
			v = &overload.Scenario{Name: string(raw) + "<&>", Events: []overload.Event{{ID: "e", Kind: overload.Step, Strings: []int{k}, Factor: 1.3}}}
		}
		if v != nil {
			var err error
			if rec.Payload, err = json.Marshal(v); err != nil {
				t.Fatal(err)
			}
		}
		var w wbuf
		w.opRecord(&rec)
		if back, err := decodeOpRecord(w.b); err != nil || w.err != nil || !reflect.DeepEqual(back, rec) {
			t.Fatalf("record %s decodes to %+v, %v; encoded from %+v", w.b, back, err, rec)
		}

		got, err := decodeOpRecord(raw)
		if err != nil || !json.Valid(raw) {
			return
		}
		var want opRecord
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("decodeOpRecord(%q) accepted what encoding/json refuses: %v", raw, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeOpRecord(%q) = %+v; encoding/json reads %+v", raw, got, want)
		}
	})
}

// FuzzParseFaults holds the faults body's one decoder inside encoding/json's
// language: whatever it accepts, a strict json.Decoder reads the same, nil
// lists told from empty ones; and what json.Marshal writes for that request,
// the payload a journal carries, parses back to it.
func FuzzParseFaults(f *testing.F) {
	mc := faults.MonteCarlo{CompartmentHits: 1, MachineOutages: 1, RouteOutages: 2}
	for seed := int64(1); seed <= 3; seed++ {
		sc, err := mc.Sample(6, seed)
		if err != nil {
			f.Fatal(err)
		}
		req := FaultsRequest{Fail: faults.SetFromScenario(sc, 6).Resources(), Repair: []faults.Resource{faults.Machine(int(seed))}}
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, s := range []string{`{}`, `{"fail":[]}`, `{"repair":[{"kind":"route","from":1,"to":2}],"fail":[{"kind":"machine"}]}`,
		`{"fail":[{"kind":"machine","machine":3}],"fail":[]}`, `{"FAIL":[]}`, `{"fail":[{"KIND":"machine","machine":3}]}`,
		`{"fail":[{"kind":"machine","Machine":3}]}`, `{"fail":[{"kind":"machine","machine":0,"machine":3}]}`, `{"fail":null}`,
		`{"fail":[{"kind":"ma\"chine","machine":-0}]} `, `{"fail":[{"kind":"machine","machine":1e0}]}`, `{"fail":[{}]}x`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := parseFaults(b)
		if err != nil {
			return
		}
		var want FaultsRequest
		if err := strictDecode(b, &want); err != nil {
			t.Fatalf("parseFaults(%q) accepted what encoding/json refuses: %v", b, err)
		}
		if !reflect.DeepEqual(req, want) {
			t.Fatalf("parseFaults(%q) = %+v; encoding/json reads %+v", b, req, want)
		}
		payload, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := parseFaults(payload); err != nil || !reflect.DeepEqual(back.Fail, nilIfEmpty(req.Fail)) ||
			!reflect.DeepEqual(back.Repair, nilIfEmpty(req.Repair)) {
			t.Fatalf("payload %s of %+v parses back to %+v, %v", payload, req, back, err)
		}
	})
}

// nilIfEmpty is what an omitempty list reads back as.
func nilIfEmpty(rs []faults.Resource) []faults.Resource {
	if len(rs) == 0 {
		return nil
	}
	return rs
}

// stateVia fetches GET /v1/state through h.
func stateVia(t *testing.T, h http.Handler) StateResponse {
	t.Helper()
	rec := serve(h, "GET", "/v1/state", "")
	var st StateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/state: status %d, %v", rec.Code, err)
	}
	return st
}

// Strict decoding that is strict: a body missing a field, naming it in the
// wrong case or twice, giving it a non-number, or followed by anything — a
// stray closing delimiter included — is a 400 bad_request that names the
// field, and the state does not move.
func TestStrictRequestBodies(t *testing.T) {
	svc, _ := journaledService(t, 6, Config{})
	h := svc.Handler()
	mustAdmit(t, svc, 3)
	snap := filepath.Join(t.TempDir(), "never-written.json")
	cases := []struct{ path, body, wantInMessage string }{
		{"/v1/admit", `{}`, `missing field "stringId"`},
		{"/v1/admit", `{"stringId":null}`, `field "stringId": want a number`},
		{"/v1/admit", `{"stringId":1}}`, "trailing data"},
		{"/v1/admit", `{"stringId":1}]`, "trailing data"},
		{"/v1/admit", `{"STRINGID":2}`, `unknown field "STRINGID"`},
		{"/v1/admit", `{"stringId":7,"stringId":2}`, `duplicate field "stringId"`},
		{"/v1/admit", `{"stringId":1.0}`, `field "stringId": want an integer`},
		{"/v1/admit", `{"stringId":1,"factor":2}`, `unknown field "factor"`},
		{"/v1/admit", `{"string\u0049d":1}`, "malformed field name"},
		{"/v1/remove", `{}`, `missing field "stringId"`},
		{"/v1/remove", `{"stringId":null}`, `field "stringId": want a number`},
		{"/v1/remove", `{"stringId":3}}`, "trailing data"},
		{"/v1/remove", `{"stringId":3}]`, "trailing data"},
		{"/v1/remove", `{"STRINGID":3}`, `unknown field "STRINGID"`},
		{"/v1/remove", `{"stringId":7,"stringId":3}`, `duplicate field "stringId"`},
		{"/v1/rescale", `{"stringId":3}`, `missing field "factor"`},
		{"/v1/rescale", `{"factor":1.1}`, `missing field "stringId"`},
		{"/v1/rescale", `{"stringId":3,"factor":null}`, `field "factor": want a number`},
		{"/v1/rescale", `{"stringId":3,"factor":"1.1"}`, `field "factor": want a number`},
		{"/v1/rescale", `{"stringId":3,"Factor":1.1}`, `unknown field "Factor"`},
		{"/v1/rescale", `{"stringId":3,"factor":1.1,"factor":1.2}`, `duplicate field "factor"`},
		{"/v1/rescale", `{"stringId":3,"factor":1e999}`, `field "factor"`},
		{"/v1/rescale", `{"stringId":3,"factor":1.1}}`, "trailing data"},
		{"/v1/rescale", `{"stringId":3,"factor":1.1}]`, "trailing data"},
		{"/v1/faults", `{"fail":[{"kind":"machine","machine":1}]}}`, "trailing data"},
		{"/v1/faults", `{"fail":[{"kind":"machine","machine":1}]}]`, "trailing data"},
		{"/v1/faults", `{"fail":[{"kind":"machine","machine":1}]} {}`, "trailing data"},
		{"/v1/faults", `{"failed":[]}`, "unknown field"},
		{"/v1/snapshot", `{"path":"` + snap + `"}}`, "trailing data"},
		{"/v1/snapshot", `{"path":"` + snap + `"}]`, "trailing data"},
		{"/v1/snapshot", `{"file":"` + snap + `"}`, "unknown field"},
	}
	// Each of these was a 200 before every body had one strict reader: a
	// repeated or case-variant name matched and the last one won (a repeated
	// "fail" failed nothing), a null list read as none, an escaped name
	// decoded. Each refusal names the field and says where.
	withOffset := map[string]bool{}
	for _, tc := range []struct{ path, body, wantInMessage string }{
		{"/v1/faults", `{"fail":[{"kind":"machine","machine":3}],"fail":[]}`, `duplicate field "fail"`},
		{"/v1/faults", `{"FAIL":[{"kind":"machine","machine":3}]}`, `unknown field "FAIL"`},
		{"/v1/faults", `{"fail":[{"KIND":"machine","machine":3}]}`, `field "fail": unknown field "KIND"`},
		{"/v1/faults", `{"fail":[{"kind":"machine","Machine":3}]}`, `unknown field "Machine"`},
		{"/v1/faults", `{"fail":[{"kind":"machine","machine":0,"machine":3}]}`, `duplicate field "machine"`},
		{"/v1/faults", `{"fail":null}`, `field "fail": want an array`},
		{"/v1/faults", `{"fail":[{"kind":"machine","machine":3}],"repair":[null]}`, `field "repair": want an object`},
		{"/v1/faults", strings.ReplaceAll(`{"f%u0061il":[{"kind":"machine","machine":3}]}`, "%u", `\u`), "malformed field name"},
		{"/v1/snapshot", `{"PATH":"` + snap + `"}`, `unknown field "PATH"`},
		{"/v1/snapshot", `{"path":null}`, `field "path": want a string`},
		{"/v1/surge", `{"events":[{"kind":"step","at":0,"factor":9,"Factor":1.1}]}`, `unknown field "Factor"`},
		{"/v1/surge", `{"version":1,"version":1,"events":[]}`, `duplicate field "version"`},
		{"/v1/surge", `{"events":[{"kind":"step","at":0,"factor":2,"id":null}]}`, `field "id": want a string`},
		{"/v1/surge", `{"Events":[{"kind":"step","at":0,"factor":2}],"events":[]}`, `unknown field "Events"`},
	} {
		cases = append(cases, tc)
		withOffset[tc.body] = true
	}
	before := stateVia(t, h)
	for _, tc := range cases {
		rec := serve(h, "POST", tc.path, tc.body)
		var env ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Errorf("POST %s %s: reply %q is no envelope: %v", tc.path, tc.body, rec.Body, err)
			continue
		}
		if rec.Code != http.StatusBadRequest || env.Err.Code != CodeBadRequest || !strings.Contains(env.Err.Message, tc.wantInMessage) {
			t.Errorf("POST %s %s: status %d, code %q, message %q; want 400 %s mentioning %q",
				tc.path, tc.body, rec.Code, env.Err.Code, env.Err.Message, CodeBadRequest, tc.wantInMessage)
		}
		if withOffset[tc.body] && !strings.Contains(env.Err.Message, " at offset ") {
			t.Errorf("POST %s %s: message %q gives no offset", tc.path, tc.body, env.Err.Message)
		}
	}
	if after := stateVia(t, h); after.Seq != before.Seq || after.Digest != before.Digest || after.MappedCount != 1 {
		t.Errorf("rejected bodies moved the state: seq %d → %d, digest %s → %s, %d mapped",
			before.Seq, after.Seq, before.Digest, after.Digest, after.MappedCount)
	}
	// The same requests, well formed, with whitespace wherever JSON allows it.
	escaped := filepath.Join(t.TempDir(), `snap "<&>" é.json`)
	quoted, err := json.Marshal(escaped)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/admit", " {\n\t\"stringId\" : 1\r\n} \n"},
		{"/v1/rescale", `{"factor":1.25e0, "stringId":1}`},
		{"/v1/remove", `{"stringId":1}`},
		{"/v1/faults", `{"fail":[{"kind":"machine","machine":1}]} ` + "\n"},
		// Fields in any order, the null json.Marshal writes for a surge of no
		// events, and values with escapes, <>& and non-ASCII, which read as
		// encoding/json reads them: the snapshot lands on the path named.
		{"/v1/faults", " {\r\n\"repair\" : [ { \"machine\" : 1 , \"kind\" : \"machine\" } ] ,\t\"fail\" : [ ] } "},
		{"/v1/surge", `{"events":null}`},
		{"/v1/surge", strings.ReplaceAll(` { "events" : [ { "factor" : 1.1 , "at" : 0 , "kind" : "step" , `+
			`"id" : "\"<&>\" %u00e9 é" } ] , "name" : "a\\b%u2028" , "version" : 1 } `, "%u", `\u`)},
		{"/v1/snapshot", `{"path":` + string(quoted) + `}`},
	} {
		if rec := serve(h, "POST", tc.path, tc.body); rec.Code != http.StatusOK {
			t.Errorf("POST %s %q: status %d: %s", tc.path, tc.body, rec.Code, rec.Body)
		}
	}
	if _, err := os.Stat(escaped); err != nil {
		t.Errorf("the snapshot named with escapes was not written where they say: %v", err)
	}
}

// Every reply is compact JSON ending in a newline with Content-Length set,
// and the hot ones are byte for byte json.Marshal of the value they carry —
// every /v1/events line included, with the faults and surge decisions'
// actions and evacuated lists.
func TestRepliesAreCompactEncodingJSON(t *testing.T) {
	svc := newTestService(t, 6, Config{})
	h := svc.Handler()
	driveOps(t, svc)
	check := func(rec *httptest.ResponseRecorder, want []byte) {
		t.Helper()
		if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
			t.Errorf("Content-Length = %q, body is %d bytes", got, rec.Body.Len())
		}
		if want != nil && !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("reply differs from encoding/json\n got %s\nwant %s", rec.Body, want)
		}
	}
	marshalLine := func(v any) []byte {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return append(data, '\n')
	}

	events, err := svc.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	var lines []byte
	kinds := map[string]bool{}
	for i := range events {
		lines = append(lines, marshalLine(&events[i])...)
		kinds[events[i].Op] = true
		if len(events[i].Actions) > 0 {
			kinds["actions"] = true
		}
		if len(events[i].Evacuated) > 0 {
			kinds["evacuated"] = true
		}
		if !events[i].Accepted {
			kinds["rejected"] = true
		}
	}
	for _, k := range []string{opAdmit, opRemove, opRescale, opFaults, opSurge, "actions", "evacuated", "rejected"} {
		if !kinds[k] {
			t.Errorf("the event stream compared has no %s decision", k)
		}
	}
	check(serve(h, "GET", "/v1/events", ""), lines)

	st, err := svc.State()
	if err != nil {
		t.Fatal(err)
	}
	check(serve(h, "GET", "/v1/state", ""), marshalLine(&st))

	rec := serve(h, "POST", "/v1/admit", `{"stringId":2}`)
	if events, err = svc.Events(st.Seq); err != nil || len(events) != 1 {
		t.Fatalf("events after the admit: %v, %v", events, err)
	}
	check(rec, marshalLine(&events[0]))

	for _, path := range []string{"/v1/healthz", "/v1/readyz", "/v1/metrics", "/v1/events?since=banana"} {
		rec := serve(h, "GET", path, "")
		check(rec, nil)
		body := rec.Body.Bytes()
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil || !bytes.Equal(append(compact.Bytes(), '\n'), body) {
			t.Errorf("GET %s: reply is not one compact JSON line: %v\n%s", path, err, body)
		}
	}
}

// A decision carrying a float JSON has no form for (a violation measured on a
// zero-bandwidth route divides by zero) is a 500 envelope, not a 200 or 422
// status line followed by an empty body.
func TestNonFiniteDecisionIsAnInternalError(t *testing.T) {
	svc := newTestService(t, 4, Config{})
	bad := Decision{SchemaVersion: SchemaVersion, Seq: 1, Op: opAdmit,
		Violations: []Violation{{Kind: "latency", Value: math.Inf(1), Bound: 500}}}
	replies := map[string]*httptest.ResponseRecorder{"decision": httptest.NewRecorder()}
	writeDecision(replies["decision"], &bad, nil)
	if err := svc.exec(func(st *state) { st.events.append(bad) }); err != nil {
		t.Fatal(err)
	}
	replies["events"] = serve(svc.Handler(), "GET", "/v1/events", "")
	for what, rec := range replies {
		var env ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusInternalServerError || env.Err.Code != CodeInternal {
			t.Errorf("%s: status %d, body %q (%v); want a 500 %s envelope", what, rec.Code, rec.Body, err, CodeInternal)
		}
	}
}

// The live path applies the factor the request parser read; replay applies
// the factor parsed back from the journaled shortest-form float. The two are
// the same float64, so a recovered daemon rescales by exactly what the live
// one did.
func TestJournaledFactorIsTheParsedFactor(t *testing.T) {
	svc, path := journaledService(t, 6, Config{})
	h := svc.Handler()
	mustAdmit(t, svc, 0)
	factors := []string{"1.0714285714285714", "0.9333333333333333", "1.0000000000000002", "1e-1", "12.5E-1", "0.30000000000000004"}
	for _, f := range factors {
		if rec := serve(h, "POST", "/v1/rescale", `{"stringId":0,"factor":`+f+`}`); rec.Code != http.StatusOK {
			t.Fatalf("rescale by %s: status %d: %s", f, rec.Code, rec.Body)
		}
	}
	want := digestOf(t, svc)
	var scale float64
	if err := svc.exec(func(st *state) { scale = st.scale[0] }); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	rec, rep, err := Recover(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if rep.Replayed != 1+len(factors) || rep.Digest != want {
		t.Fatalf("recovered %d records to digest %s, want %d and %s", rep.Replayed, rep.Digest, 1+len(factors), want)
	}
	if err := rec.exec(func(st *state) {
		if math.Float64bits(st.scale[0]) != math.Float64bits(scale) {
			t.Errorf("replayed scale %v (%016x), live scale %v (%016x)",
				st.scale[0], math.Float64bits(st.scale[0]), scale, math.Float64bits(scale))
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// skipUnderRace skips a test that counts allocations when the race detector
// is on: sync.Pool drops buffers at random there and the count wanders.
func skipUnderRace(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under the race detector sync.Pool drops buffers at random and the count wanders")
			}
		}
	}
}

// An accepted admit + remove pair through the handler allocates what it did
// once its op ran under the state mutex, plus a tenth: a reflective Marshal or
// a second parse creeping back in costs a dozen allocations and fails here
// rather than in a benchmark nobody reads, and so does a state function that
// escapes to the heap again (57 when each op was a closure and a done channel
// sent to a loop goroutine). The count includes httptest's own request and
// recorder (about 40 of it).
func TestHandlerOpAllocs(t *testing.T) {
	skipUnderRace(t)
	h, k := paperHandler(t)
	const measured = 47
	got := testing.AllocsPerRun(200, func() { removeAdmit(t, h, k) })
	t.Logf("admit + remove pair: %.0f allocations", got)
	if got > measured*1.1 {
		t.Errorf("admit + remove pair: %.0f allocations, want at most %d + 10%%", got, measured)
	}
}

// A GET /v1/state that follows an op — a digest memo miss — allocates what it
// did once the read ran under the state mutex, plus a tenth: a digest that
// re-formats the whole state text, or a read that builds its rows as a
// []StringStatus again, fails here (26 when the read was sent to a loop
// goroutine). The count includes
// httptest's own request and recorder.
func TestHandlerStateAllocs(t *testing.T) {
	skipUnderRace(t)
	h, k := paperHandler(t)
	const measured = 24
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 100
	var total uint64
	var before, after runtime.MemStats
	for n := 0; n <= runs; n++ {
		removeAdmit(t, h, k)
		runtime.ReadMemStats(&before)
		readState(t, h)
		runtime.ReadMemStats(&after)
		if n > 0 { // the first read fills the line cache
			total += after.Mallocs - before.Mallocs
		}
	}
	got := float64(total) / runs
	t.Logf("state read after an op: %.1f allocations", got)
	if got > measured*1.1 {
		t.Errorf("state read after an op: %.1f allocations, want at most %d + 10%%", got, measured)
	}
}
