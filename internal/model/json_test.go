package model_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// strictDecode is the reference reading of a system document: encoding/json
// with unknown fields refused and nothing but whitespace after the value.
func strictDecode(b []byte) (*model.System, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	sys := new(model.System)
	if err := dec.Decode(sys); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, io.ErrUnexpectedEOF
	}
	return sys, nil
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameSystem is equality field by field, floats by their bits, a nil slice
// told from an empty one.
func sameSystem(a, b *model.System) bool {
	if a.Machines != b.Machines || len(a.Bandwidth) != len(b.Bandwidth) || (a.Bandwidth == nil) != (b.Bandwidth == nil) ||
		len(a.Strings) != len(b.Strings) || (a.Strings == nil) != (b.Strings == nil) {
		return false
	}
	for i := range a.Bandwidth {
		if !sameFloats(a.Bandwidth[i], b.Bandwidth[i]) {
			return false
		}
	}
	for k := range a.Strings {
		s, t := &a.Strings[k], &b.Strings[k]
		if s.ID != t.ID || !sameFloats([]float64{s.Worth, s.Period, s.MaxLatency}, []float64{t.Worth, t.Period, t.MaxLatency}) ||
			len(s.Apps) != len(t.Apps) || (s.Apps == nil) != (t.Apps == nil) {
			return false
		}
		for i := range s.Apps {
			x, y := &s.Apps[i], &t.Apps[i]
			if !sameFloats(x.NominalTime, y.NominalTime) || !sameFloats(x.NominalUtil, y.NominalUtil) ||
				math.Float64bits(x.OutputKB) != math.Float64bits(y.OutputKB) {
				return false
			}
		}
	}
	return true
}

// smallSystems are the shapes the writers are fed: scenarios 1–3 and a fleet
// ship, at sizes a fuzz seed can carry.
func smallSystems() []*model.System {
	var out []*model.System
	for _, s := range []workload.Scenario{workload.HighlyLoaded, workload.QoSLimited, workload.LightlyLoaded} {
		cfg := workload.ScenarioConfig(s)
		cfg.Machines, cfg.Strings = 3, 3
		out = append(out, workload.MustGenerate(cfg, int64(s)))
	}
	return append(out, workload.MustGenerate(workload.FleetConfig(8, 2), 9))
}

// writings is sys as both writers write it: WriteJSON's indented -in file and
// the compact encoding the daemon pins as its catalog.
func writings(tb testing.TB, sys *model.System) [][]byte {
	var indented bytes.Buffer
	if err := sys.WriteJSON(&indented); err != nil {
		tb.Fatal(err)
	}
	compact, err := json.Marshal(sys)
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{indented.Bytes(), compact}
}

const tiny = `{"machines":1,"bandwidth":[[0]],"strings":[{"id":0,"worth":1,"period":2,"maxLatency":3,` +
	`"apps":[{"nominalTime":[1],"nominalUtil":[0.5],"outputKB":4}]}]}`

// The first five load at the parent of the strict reader (trailing bytes never
// looked at, an unknown name dropped with its value, a case variant matched, a
// repeat last-wins, an escape decoded); the rest it refused too and are kept
// as a guard. Every refusal names where.
func TestReadJSONRefuses(t *testing.T) {
	if _, err := model.ParseSystem([]byte(tiny)); err != nil {
		t.Fatalf("the document the cases are edits of: %v", err)
	}
	for _, tc := range []struct{ name, old, new, wantInError string }{
		{"trailing bytes", `]}]}`, `]}]} garbage`, "trailing data"},
		{"unknown name", `"outputKB"`, `"outputKb"`, `unknown field "outputKb"`},
		{"case variant", `"machines"`, `"MACHINES"`, `unknown field "MACHINES"`},
		{"duplicate", `"period":2`, `"period":2,"period":5`, `duplicate field "period"`},
		{"escaped name", `"worth"`, `"w\u006frth"`, "malformed field name"},
		{"null array", `"bandwidth":[[0]]`, `"bandwidth":null`, `field "bandwidth": want an array`},
		{"null number", `"worth":1`, `"worth":null`, `field "worth": want a number`},
		{"fractional integer", `"machines":1`, `"machines":1.0`, `field "machines": want an integer`},
		{"exponent integer", `"id":0`, `"id":1e0`, `field "id": want an integer`},
		{"string for a number", `"outputKB":4`, `"outputKB":"4"`, `field "outputKB": want a number`},
		{"out of range", `"outputKB":4`, `"outputKB":1e999`, "out of range"},
		{"truncated", `}]}]}`, ``, "at offset"},
		{"not an object", `{"machines":1,`, `[{"machines":1,`, "want an object"},
	} {
		doc := strings.Replace(tiny, tc.old, tc.new, 1)
		if doc == tiny {
			t.Fatalf("%s: the edit changed nothing", tc.name)
		}
		_, err := model.ParseSystem([]byte(doc))
		if err == nil || !strings.Contains(err.Error(), tc.wantInError) || !strings.Contains(err.Error(), "at offset ") {
			t.Errorf("%s: ParseSystem(%s) = %v, want an error with an offset mentioning %q", tc.name, doc, err, tc.wantInError)
		}
	}
	// What stays accepted: any field order, whitespace wherever JSON allows
	// it, and the null the writers emit for a system without strings.
	for _, doc := range []string{
		" {\n\t\"strings\" : [ ] ,\r\n \"bandwidth\":[ [ 0 ] ], \"machines\" : 1 } \n",
		`{"machines":1,"bandwidth":[[0]],"strings":null}`,
	} {
		if _, err := model.ParseSystem([]byte(doc)); err != nil {
			t.Errorf("ParseSystem(%q): %v", doc, err)
		}
	}
}

// A header cannot make the reader allocate: no size is taken from "machines",
// so a few bytes claiming a billion machines fail in Validate having allocated
// what a few bytes can hold. TotalAlloc is process-wide and other goroutines
// can only add to it, so the bytes one parse allocated are the smallest delta
// over several.
func TestHeaderCannotMakeTheReaderAllocate(t *testing.T) {
	doc := []byte(`{"machines":1000000000,"bandwidth":[]}`)
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := model.ParseSystem(doc)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "bandwidth matrix has 0 rows, want 1000000000") {
			t.Fatalf("ParseSystem(%s) = %v, want Validate's refusal", doc, err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4096 {
		t.Errorf("refusing a %d-byte document allocated %d bytes", len(doc), least)
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = model.ParseSystem(doc) }); allocs > 8 {
		t.Errorf("refusing a %d-byte document took %v allocations", len(doc), allocs)
	}
}

// Everything the writers write loads, and loads to what encoding/json reads.
func TestParseSystemReadsWhatTheWritersWrite(t *testing.T) {
	empty := model.NewUniformSystem(3, 10) // Strings nil: written as null
	for _, sys := range append(smallSystems(), empty) {
		for _, doc := range writings(t, sys) {
			got, err := model.ParseSystem(doc)
			if err != nil {
				t.Fatalf("ParseSystem of a written system: %v", err)
			}
			want, err := strictDecode(doc)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSystem(got, want) || !sameSystem(got, sys) {
				t.Errorf("a %d-machine system did not load back to itself", sys.Machines)
			}
		}
	}
}

// indentedReference is what WriteJSON wrote while it was encoding/json's
// Encoder with a two-space indent.
func indentedReference(tb testing.TB, sys *model.System) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sys); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// WriteJSON writes the bytes encoding/json's indented Encoder writes: on the
// scenario and fleet ships, on the benchmark's fleet ship, and on a system of
// the layout's edge cases — nil and empty arrays, -0, the smallest
// subnormal, the ES6 exponent thresholds, integral floats on both sides of
// 2^53. A float JSON cannot carry is refused.
func TestWriteJSONIsEncodingJSON(t *testing.T) {
	app := func(times ...float64) model.Application {
		return model.Application{NominalTime: times, NominalUtil: []float64{}, OutputKB: -0.0}
	}
	edges := &model.System{
		Machines:  2,
		Bandwidth: [][]float64{{0, math.Copysign(0, -1)}, {}, nil, {5e-324, math.MaxFloat64}},
		Strings: []model.AppString{
			{ID: 0, Worth: 1e-6, Period: 9.99999e-7, MaxLatency: 1e21, Apps: []model.Application{
				app(1e20, 123456789e30, -1.5e-9, 1<<53, 1<<53+2, -(1 << 52), 0.1, 1.0/3),
				{NominalTime: nil, NominalUtil: nil, OutputKB: 4},
			}},
			{ID: 7, Worth: 100, Period: 0.25, MaxLatency: 2, Apps: []model.Application{}},
			{ID: 8, Apps: nil},
		},
	}
	systems := append(smallSystems(), model.NewUniformSystem(3, 10), &model.System{},
		workload.MustGenerate(workload.FleetConfig(128, 2), 1), edges)
	for i, sys := range systems {
		var got bytes.Buffer
		if err := sys.WriteJSON(&got); err != nil {
			t.Fatalf("system %d: %v", i, err)
		}
		if want := indentedReference(t, sys); !bytes.Equal(got.Bytes(), want) {
			n := 0
			for n < len(want) && n < got.Len() && want[n] == got.Bytes()[n] {
				n++
			}
			t.Errorf("system %d: WriteJSON differs from encoding/json at byte %d of %d:\n%q\nwant\n%q",
				i, n, len(want), got.Bytes()[n:min(n+40, got.Len())], want[n:min(n+40, len(want))])
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		edges.Strings[1].Worth = f
		var got bytes.Buffer
		if err := edges.WriteJSON(&got); err == nil || !strings.Contains(err.Error(), "unsupported value") || got.Len() != 0 {
			t.Errorf("worth %v: error %v, %d bytes written; want an unsupported-value error and nothing written", f, err, got.Len())
		}
	}
}

// FuzzParseSystem holds the system reader inside encoding/json's language:
// whatever it accepts, a strict json.Decoder decodes to the same System, every
// float by its bits, and WriteJSON writes it back as encoding/json does.
func FuzzParseSystem(f *testing.F) {
	for _, sys := range smallSystems() {
		for _, doc := range writings(f, sys) {
			f.Add(doc)
		}
	}
	for _, s := range []string{tiny, `{}`, `null`, `{"machines":1,"bandwidth":[[-0.0]],"strings":[]}`,
		`{"machines":1,"bandwidth":[[1E+2]],"strings":null}`, `{"machines":01}`, `{"machines":1,"bandwidth":[[0,]]}`,
		`{"machines":1,"bandwidth":[[0]],"strings":[null]}`, `{"machines":1,"bandwidth":[[5e-324]],"Strings":[]}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		got, err := model.ParseSystem(doc)
		if err != nil {
			return
		}
		want, err := strictDecode(doc)
		if err != nil {
			t.Fatalf("ParseSystem(%q) accepted what encoding/json refuses: %v", doc, err)
		}
		if !sameSystem(got, want) {
			t.Fatalf("ParseSystem(%q) = %+v; encoding/json reads %+v", doc, got, want)
		}
		var written bytes.Buffer
		if err := got.WriteJSON(&written); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written.Bytes(), indentedReference(t, got)) {
			t.Fatalf("WriteJSON of ParseSystem(%q) differs from encoding/json's", doc)
		}
	})
}

// BenchmarkLoadSystemFleet prices parse + Validate of the benchmark's fleet
// ship, as the indented -in file and as the compact pinned catalog.
func BenchmarkLoadSystemFleet(b *testing.B) {
	docs := writings(b, workload.MustGenerate(workload.FleetConfig(128, 2), 1))
	for i, name := range []string{"indented", "compact"} {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(docs[i])))
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, err := model.ParseSystem(docs[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteSystemFleet prices WriteJSON of the benchmark's fleet ship:
// the indented -in file every cmd/shipbench set-up writes.
func BenchmarkWriteSystemFleet(b *testing.B) {
	sys := workload.MustGenerate(workload.FleetConfig(128, 2), 1)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if err := sys.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
