package jsonscan

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// Raw steps over exactly one value, and over everything json.Valid calls one.
func TestRawStepsOverOneValue(t *testing.T) {
	for _, v := range []string{
		`0`, `-0.5e+3`, `"a\"b\\"`, `"é"`, `true`, `false`, `null`, `[]`, `{}`, `[ 1 , [ ] , { } ]`,
		`{"a":[1,{"b":null,"c":"]}"}],"d":{}}`, "{ \"a\" :\n1 ,\t\"b\" : [ true ] }",
	} {
		if !json.Valid([]byte(v)) {
			t.Fatalf("%s is not JSON", v)
		}
		c := Cursor{B: []byte(v + `,"next"`)}
		if got, err := c.Raw(); err != nil || string(got) != v {
			t.Errorf("Raw(%s) = %q, %v", v, got, err)
		}
	}
	for _, v := range []string{``, `,`, `tru`, `nul`, `01`, `1.`, `-`, `"open`, "\"a\nb\"", `[1,]`, `[1 2]`, `{"a"}`, `{"a":}`, `{1:2}`, `{"a":1,}`, `[}`, `{]`} {
		c := Cursor{B: []byte(v)}
		if got, err := c.Raw(); err == nil && len(got) == len(v) {
			t.Errorf("Raw(%s) stepped over all of it", v)
		}
	}
}

// Nesting is followed as deep as encoding/json follows it and no deeper, so
// a record of nothing but brackets cannot run the stack out.
func TestRawNestingLimit(t *testing.T) {
	for _, tc := range []struct {
		depth int
		ok    bool
	}{{maxDepth, true}, {maxDepth + 1, false}, {8 << 20, false}} {
		doc := []byte(strings.Repeat("[", tc.depth) + strings.Repeat("]", tc.depth))
		c := Cursor{B: doc}
		_, err := c.Raw()
		if (err == nil) != tc.ok {
			t.Errorf("Raw of %d nested arrays: %v, want accepted=%v", tc.depth, err, tc.ok)
		}
		if tc.depth < 1<<20 && json.Valid(doc) != tc.ok {
			t.Errorf("encoding/json disagrees at depth %d", tc.depth)
		}
	}
}

// Number takes exactly JSON's number tokens and reads them as encoding/json
// does into a float64 (by its bits: -0 is not 0), an int and a uint64.
func TestNumberReadsAsEncodingJSON(t *testing.T) {
	for _, tok := range []string{
		"0", "-0", "7", "-12", "1.0", "1e0", "1E+2", "2.5e-3", "0.1", "1e999", "-1e999", "5e-324", "1e-400",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "18446744073709551615", "18446744073709551616",
		"0.0000000000000000000000000000001", "123456789012345678901234", "2.4703282292062327e-324", "1E-0",
		"01", "1.", ".5", "+1", "-", "1e", "0x10", "1_000", "Inf", "NaN", "",
	} {
		var f, wantF float64
		var i, wantI int
		var u, wantU uint64
		for _, tc := range []struct {
			got, want any
			same      func() bool
		}{
			{&f, &wantF, func() bool { return math.Float64bits(f) == math.Float64bits(wantF) }},
			{&i, &wantI, func() bool { return i == wantI }},
			{&u, &wantU, func() bool { return u == wantU }},
		} {
			wantErr := json.Unmarshal([]byte(tok), tc.want)
			c := Cursor{B: []byte(tok)}
			err := c.Number(tc.got)
			if whole := err == nil && c.I == len(tok); whole != (wantErr == nil) || (whole && !tc.same()) {
				t.Errorf("Number(%q) into a %T: %v; encoding/json: %v", tok, tc.got, err, wantErr)
			}
		}
	}
}

// stringTokens are the shapes a string value takes: plain, escaped every way
// JSON allows, surrogate pairs whole and lone, raw non-ASCII, invalid UTF-8,
// and the malformed ones — a control byte, a bad escape, an open quote. A
// %u stands for a backslash-u escape.
var stringTokens = strings.Split(strings.ReplaceAll(
	`""|"a"|"x y"|"é"|"😀"|"a\"b"|"\\"|"\/"|"\b\f\n\r\t"|"%u00e9"|"%u0065%u0301"|"%ud83d%ude00"|"%ud800"|`+
		`"%udc00x"|"%u0020"|"%u0000"|"%u003c>&"|"%u2028"|"%uD83D%uDE00"|"\q"|"%u12"|"%u12g4"|"open|"a\"|"|x|null|1|`+
		"\"\x7f\"|\"\xff\"|\"\xc3\"|\"\xed\xa0\x80\"|\"a\nb\"|\"\x1f\"",
	"%u", `\u`), "|")

// String reads every string token as encoding/json reads it into a string,
// and refuses exactly what encoding/json refuses.
func TestStringReadsAsEncodingJSON(t *testing.T) {
	for _, tok := range stringTokens {
		sameAsUnmarshal(t, []byte(tok))
	}
}

func sameAsUnmarshal(t *testing.T, tok []byte) {
	t.Helper()
	if len(bytes.TrimSpace(tok)) != len(tok) || string(tok) == "null" {
		return // a string reader reads a string token, not the space around one or a null
	}
	var want string
	wantErr := json.Unmarshal(tok, &want)
	c := Cursor{B: tok}
	got, err := c.String()
	if whole := err == nil && c.I == len(tok); whole != (wantErr == nil) || (whole && got != want) {
		t.Errorf("String(%q) = %q, %v (read %d of %d bytes); encoding/json: %q, %v", tok, got, err, c.I, len(tok), want, wantErr)
	}
}

// FuzzString: on any bytes, String takes a whole string token exactly when
// json.Unmarshal into a string does, and reads the same value.
func FuzzString(f *testing.F) {
	for _, tok := range stringTokens {
		f.Add([]byte(tok))
	}
	f.Fuzz(sameAsUnmarshal)
}

// The object loop: any order, at most once, exact names; an unknown name is
// refused or stepped over, but never one encoding/json would have matched by
// case folding; every refusal says where.
func TestObject(t *testing.T) {
	names := []string{"id", "name"}
	read := func(doc string, skipUnknown bool) (id int, name string, seen uint32, err error) {
		c := Cursor{B: []byte(doc)}
		err = c.Object(names, skipUnknown, func(f int) (err error) {
			seen |= 1 << f
			if f == 0 {
				return c.Number(&id)
			}
			s, err := c.Plain()
			name = string(s)
			return err
		})
		return id, name, seen, c.End(err)
	}
	if id, name, seen, err := read(" { \"name\" : \"x y\" ,\n\"id\" : 4 } ", false); err != nil || id != 4 || name != "x y" || seen != 3 {
		t.Errorf("read = %d, %q, %b, %v", id, name, seen, err)
	}
	if _, _, seen, err := read(`{}`, false); err != nil || seen != 0 {
		t.Errorf("empty object: %b, %v", seen, err)
	}
	if id, _, seen, err := read(`{"old":{"a":[1,"}"]},"id":5,"old":null}`, true); err != nil || id != 5 || seen != 1 {
		t.Errorf("unknown fields stepped over: %d, %b, %v", id, seen, err)
	}
	for _, tc := range []struct {
		doc         string
		skipUnknown bool
		want        string
	}{
		{`{"id":1,"other":2}`, false, `unknown field "other" at offset 15`},
		{`{"ID":1}`, false, `unknown field "ID" at offset 5`},
		{`{"ID":1}`, true, `unknown field "ID" at offset 5`},
		{`{"Name":"x"}`, true, `unknown field "Name" at offset 7`},
		{`{"id":1,"id":2}`, true, `duplicate field "id" at offset 12`},
		{`{"i\u0064":1}`, true, `malformed field name: want a plain string (printable ASCII, no escapes) at offset 3`},
		{`{"näme":"x"}`, true, `malformed field name`},
		{`{"id":null}`, false, `field "id": want a number at offset 6`},
		{`{"id":1.5}`, false, `field "id": want an integer at offset 6`},
		{`{"name":"a\tb"}`, false, `field "name": want a plain string`},
		{`{"id" 1}`, false, `field "id": want ':' at offset 6`},
		{`{"id":1 "name":"x"}`, false, `field "id": want ',' or '}' at offset 8`},
		{`{"id":1,}`, false, `malformed field name: want a string at offset 8`},
		{`{"id":1`, false, `field "id": want ',' or '}' at offset 7`},
		{`{"old":[1,}`, true, `field "old": want a value at offset 10`},
		{`[]`, false, `want an object at offset 0`},
		{`{"id":1} x`, false, `trailing data after the document at offset 9`},
	} {
		if _, _, _, err := read(tc.doc, tc.skipUnknown); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("read(%s) = %v, want an error mentioning %q", tc.doc, err, tc.want)
		}
	}
}
