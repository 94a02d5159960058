// Package jsonscan is the byte cursor under the repository's hand-written JSON
// readers: the system document (internal/model), the journal record and every
// request body — admit/remove/rescale, faults, surge, snapshot — and scenario
// file (internal/service, internal/scenario and the faults and overload
// packages over it). A reader is a table of field names per object plus a
// function reading each field's value with the typed readers here; the object
// loop, the number scanner and the offsets in errors are stated once. Whatever
// is read is read as encoding/json reads it: the float token scanNumber
// delimits is converted where it lies (Clinger's fast path, then Eisel–Lemire,
// eisel_lemire.go) and goes to strconv only when neither is sure of the
// correctly rounded value, an integer token goes to strconv, a string value
// with an escape or invalid UTF-8 goes to encoding/json as that one token;
// names match by their exact bytes, at most once; null is no typed reader's
// value. AppendFloat is the writers' side of the number grammar: a float64 as
// encoding/json writes it.
package jsonscan

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Cursor is a read position in a JSON document. The typed readers expect I at
// the first byte of a value and leave it just past the value.
type Cursor struct {
	B     []byte // the document
	I     int    // the next unread byte
	depth int    // containers Raw is inside of
}

// End closes the reading of a document's one value: err if that failed, and
// otherwise a refusal of anything but whitespace after it.
func (c *Cursor) End(err error) error {
	if c.I = skipSpace(c.B, c.I); err == nil && c.I != len(c.B) {
		err = c.errorf("trailing data after the document")
	}
	return err
}

// errorf is the error every refusal is: the message and where reading stopped.
func (c *Cursor) errorf(format string, args ...any) error {
	return fmt.Errorf(format+" at offset %d", append(args, c.I)...)
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// scanNumber scans the JSON number starting at b[i] and returns the index
// after it and whether it is written as an integer (no fraction, no
// exponent); end == i means no number starts there.
func scanNumber(b []byte, i int) (end int, integer bool) {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	k := digits(b, j)
	if k == j || (b[j] == '0' && k > j+1) {
		return i, false // no digits, or a leading zero
	}
	j, integer = k, true
	if j < len(b) && b[j] == '.' {
		if k = digits(b, j+1); k == j+1 {
			return i, false
		}
		j, integer = k, false
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if k = digits(b, j); k == j {
			return i, false
		}
		j, integer = k, false
	}
	return j, integer
}

// pow10 is the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// fastFloat converts a token scanNumber delimited, reading its digits once:
// up to 19 significant digits into a mantissa, then Clinger's fast path (an
// exact mantissa times or over an exact power of ten is one correctly rounded
// operation) or Eisel–Lemire, which also gives ±0. ok is false where neither
// is sure of the correctly rounded value — more significant digits, an
// exponent outside the table, a halfway case — and strconv is asked instead.
func fastFloat(tok []byte) (f float64, ok bool) {
	neg := tok[0] == '-'
	i := 0
	if neg {
		i = 1
	}
	end, man := mantissa(tok, i, 0)
	nd, exp10 := end-i, 0 // JSON writes no leading zero but a lone "0"
	if end < len(tok) && tok[end] == '.' {
		frac := end + 1
		if i = frac; nd == 1 && man == 0 { // 0.000ddd: the zeros move the point, they are not significant
			for nd = 0; i < len(tok) && tok[i] == '0'; i++ {
			}
		}
		end, man = mantissa(tok, i, man)
		nd, exp10 = nd+end-i, frac-end
	}
	i = end
	if nd > 19 { // man wrapped: more digits than a uint64 holds
		return 0, false
	}
	if i < len(tok) { // the exponent, read while it is below 100 000; past that, strconv's
		i++
		eneg := tok[i] == '-'
		if eneg || tok[i] == '+' {
			i++
		}
		e := 0
		for ; i < len(tok) && e < 10000; i++ {
			e = e*10 + int(tok[i]-'0')
		}
		if i < len(tok) {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if man < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		if f = float64(man); neg {
			f = -f
		}
		if exp10 < 0 {
			return f / pow10[-exp10], true
		}
		return f * pow10[exp10], true
	}
	return eiselLemire64(man, exp10, neg)
}

// mantissa accumulates the digits from b[i] into man.
func mantissa(b []byte, i int, man uint64) (int, uint64) {
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		man = man*10 + uint64(b[i]-'0')
	}
	return i, man
}

// at reports whether the next unread byte is ch.
func (c *Cursor) at(ch byte) bool { return c.I < len(c.B) && c.B[c.I] == ch }

// Number reads a number into dst, a *float64, *int, *int64 or *uint64, bit
// for bit what encoding/json reads from the same token: the integers refuse a
// fraction or an exponent (12.0, 1e0), a *uint64 refuses a sign.
func (c *Cursor) Number(dst any) error {
	_, float := dst.(*float64)
	end, integer := scanNumber(c.B, c.I)
	if end == c.I {
		return c.errorf("want a number")
	}
	if !float && !integer {
		return c.errorf("want an integer")
	}
	tok := c.B[c.I:end]
	c.I = end
	var err error
	switch p := dst.(type) { // the conversions stay on the stack: strconv keeps no argument
	case *float64:
		var ok bool
		if *p, ok = fastFloat(tok); !ok {
			*p, err = strconv.ParseFloat(string(tok), 64)
		}
	case *int:
		var n int64
		n, err = strconv.ParseInt(string(tok), 10, 0)
		*p = int(n)
	case *int64:
		*p, err = strconv.ParseInt(string(tok), 10, 64)
	case *uint64:
		*p, err = strconv.ParseUint(string(tok), 10, 64)
	default:
		panic("jsonscan: Number into something else") // formatting dst would make every caller's variable escape
	}
	if err != nil { // all strconv has left to refuse in a scanNumber token
		return c.errorf("number %s out of range", tok)
	}
	return nil
}

// lit steps past s if the document continues with it.
func (c *Cursor) lit(s string) bool {
	if len(c.B)-c.I < len(s) || string(c.B[c.I:c.I+len(s)]) != s {
		return false
	}
	c.I += len(s)
	return true
}

// Null steps past a null if one is next; a reader that takes one asks first.
func (c *Cursor) Null() bool { return c.lit("null") }

// Bool reads true or false.
func (c *Cursor) Bool() (v bool, err error) {
	if v = c.lit("true"); !v && !c.lit("false") {
		err = c.errorf("want true or false")
	}
	return v, err
}

// Plain reads a string of printable ASCII without escapes (every field name,
// every op name and hex digest a durable record holds) and returns its bytes,
// a sub-slice of the document. Any other string is refused, not unescaped.
func (c *Cursor) Plain() ([]byte, error) {
	if !c.at('"') {
		return nil, c.errorf("want a string")
	}
	end := c.I + 1
	for end < len(c.B) && c.B[end] != '"' && c.B[end] != '\\' && ' ' <= c.B[end] && c.B[end] <= '~' {
		end++
	}
	if end == len(c.B) || c.B[end] != '"' {
		c.I = end
		return nil, c.errorf("want a plain string (printable ASCII, no escapes)")
	}
	s := c.B[c.I+1 : end]
	c.I = end + 1
	return s, nil
}

// String reads a string value as encoding/json reads it: one of valid UTF-8
// without escapes is copied as it lies, and any other string token skip
// delimits (escapes, surrogate pairs, invalid UTF-8) is decoded by
// encoding/json itself, so every value is the one json.Unmarshal gives.
func (c *Cursor) String() (string, error) {
	start, end := c.I, c.I+1
	if !c.at('"') {
		return "", c.errorf("want a string")
	}
	for end < len(c.B) && c.B[end] != '"' && c.B[end] != '\\' && c.B[end] >= ' ' {
		end++
	}
	if end < len(c.B) && c.B[end] == '"' && utf8.Valid(c.B[start+1:end]) {
		c.I = end + 1
		return string(c.B[start+1 : end]), nil
	}
	var s string
	if err := c.skip(); err != nil {
		return "", err
	}
	if err := json.Unmarshal(c.B[start:c.I], &s); err != nil {
		c.I = start
		return "", c.errorf("malformed string: %v", err)
	}
	return s, nil
}

// open steps over whitespace into a container; more says it has an element.
func (c *Cursor) open(opener byte, what string) (more bool, err error) {
	if c.I = skipSpace(c.B, c.I); !c.at(opener) {
		return false, c.errorf("want %s", what)
	}
	if c.I = skipSpace(c.B, c.I+1); c.at(opener + 2) { // '['+2 == ']', '{'+2 == '}'
		c.I++
		return false, nil
	}
	return true, nil
}

// next steps from the end of an element to the next, or out of the container.
func (c *Cursor) next(closer byte) (more bool, err error) {
	if c.I = skipSpace(c.B, c.I); c.at(closer) {
		c.I++
		return false, nil
	}
	if !c.at(',') {
		return false, c.errorf("want ',' or %q", closer)
	}
	c.I = skipSpace(c.B, c.I+1)
	return true, nil
}

// Array reads an array, calling elem with the cursor on each element.
func (c *Cursor) Array(elem func() error) error {
	more, err := c.open('[', "an array")
	for more && err == nil {
		if err = elem(); err == nil {
			more, err = c.next(']')
		}
	}
	return err
}

// Object reads an object whose fields are named in names (at most 32), in any
// order, each at most once, and calls value(f) with the cursor on the value
// of names[f]. A name outside the table is refused, or with skipUnknown
// stepped over — unless it differs from a known name only in case, which
// encoding/json would have matched.
func (c *Cursor) Object(names []string, skipUnknown bool, value func(f int) error) error {
	var seen uint32
	more, err := c.open('{', "an object")
	for more && err == nil {
		var name []byte
		if name, err = c.Plain(); err != nil {
			return fmt.Errorf("malformed field name: %w", err)
		}
		f := 0
		for f < len(names) && string(name) != names[f] {
			f++
		}
		known := f < len(names)
		if known && seen&(1<<f) != 0 {
			return c.errorf("duplicate field %q", name)
		}
		if !known && (!skipUnknown || foldsToAny(name, names)) {
			return c.errorf("unknown field %q", name)
		}
		if c.I = skipSpace(c.B, c.I); !c.at(':') {
			return c.errorf("field %q: want ':'", name)
		}
		c.I = skipSpace(c.B, c.I+1)
		if known {
			seen |= 1 << f
			err = value(f)
		} else {
			err = c.skip()
		}
		if err == nil {
			more, err = c.next('}')
		}
		if err != nil {
			return fmt.Errorf("field %q: %w", name, err)
		}
	}
	return err
}

func foldsToAny(name []byte, names []string) bool {
	for _, n := range names {
		if strings.EqualFold(string(name), n) {
			return true
		}
	}
	return false
}

// maxDepth is how deep Raw follows nested values: encoding/json's own limit.
const maxDepth = 10000

// Raw steps over one value of any shape and returns its bytes, a sub-slice of
// the document. It checks structure (brackets, separators, literals, number
// tokens, plain field names), not what a string holds; what the bytes mean is
// the caller's to validate before use.
func (c *Cursor) Raw() ([]byte, error) {
	start := c.I
	if err := c.skip(); err != nil {
		return nil, err
	}
	return c.B[start:c.I], nil
}

func (c *Cursor) skip() (err error) {
	switch {
	case c.at('"'):
		for c.I++; c.I < len(c.B) && c.B[c.I] != '"' && c.B[c.I] >= ' '; c.I++ {
			if c.B[c.I] == '\\' {
				c.I++
			}
		}
		if !c.at('"') {
			c.I = min(c.I, len(c.B))
			return c.errorf("malformed string")
		}
		c.I++
		return nil
	case c.at('['), c.at('{'):
		if c.depth++; c.depth > maxDepth {
			return c.errorf("nested deeper than %d", maxDepth)
		}
		if c.at('[') {
			err = c.Array(c.skip)
		} else {
			err = c.Object(nil, true, nil)
		}
		c.depth--
		return err
	case c.lit("true"), c.lit("false"), c.lit("null"):
		return nil
	}
	end, _ := scanNumber(c.B, c.I)
	if end == c.I {
		return c.errorf("want a value")
	}
	c.I = end
	return nil
}

// AppendFloat appends f the way encoding/json writes a float64: shortest
// round-trip digits, in ES6 form (exponent iff |f| < 1e-6 or |f| >= 1e21,
// two-digit negative exponents trimmed of their leading zero). An integral
// |f| < 2^53 is exact in an int64 and its shortest digits are the integer's
// own, so it skips the float formatter; -0 does not, encoding/json writes it
// "-0". NaN and ±Inf have no JSON form: it appends nothing and reports false.
func AppendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	if f > -1<<53 && f < 1<<53 {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return strconv.AppendInt(dst, i, 10), true
		}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 to e-9
		dst = dst[:n-1]
	}
	return dst, true
}
