package jsonscan

import (
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
)

// edgeFloats are the tokens at the corners of float64 and of the fast path:
// signed zero, the subnormal floor and what rounds to it or below it, what
// overflows, the largest finite value and what rounds past it, 2^53 ± 1, more
// digits than a uint64 holds, leading and trailing zeros, and the exponent
// window's and Clinger's edges.
var edgeFloats = []string{
	"0", "-0", "0.0", "-0.0e-5", "0e999999", "-0e-400", "1E-0", "1e+0", "1e00000000000000000001",
	"5e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "4.9406564584124654e-324",
	"2.2250738585072011e-308", "2.2250738585072014e-308", "1e-400", "1e400", "-1e400",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
	"9007199254740991", "9007199254740992", "9007199254740993", "-9007199254740993", "9007199254740993e-5",
	"9999999999999999999", "99999999999999999999", "123456789012345678901234", "1.23456789012345678901234",
	"1.00000000000000000000", "0.1", "0.3", "1.0000000000000002", "0." + strings.Repeat("0", 30) + "1",
	"1" + strings.Repeat("0", 64) + ".0", // the mantissa wraps to 0: 10^64 is a multiple of 2^64
	"1e22", "1e23", "1e-22", "1e-23", "1e63", "1e64", "1e-64", "1e-65", "123.456e-70", "-4.5e15", "8.5e-15",
}

// sameAsStrconv reads tok through Number into a float64 and fails unless
// strconv.ParseFloat accepts and refuses it alike and gives the same bits.
func sameAsStrconv(t *testing.T, tok string) {
	t.Helper()
	want, wantErr := strconv.ParseFloat(tok, 64)
	c := Cursor{B: []byte(tok)}
	var got float64
	err := c.Number(&got)
	if (err == nil) != (wantErr == nil) || c.I != len(tok) {
		t.Fatalf("Number(%q): %v, read %d of %d bytes; strconv: %v", tok, err, c.I, len(tok), wantErr)
	}
	if err == nil && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Number(%q) = %v (%#x); strconv: %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// Every carried row is the top 128 bits of 10^q, rounded down, low word first.
func TestPowersOfTenTable(t *testing.T) {
	if n := detailedPowersOfTenMaxExp10 - detailedPowersOfTenMinExp10 + 1; len(detailedPowersOfTen) != n {
		t.Fatalf("%d rows for %d exponents", len(detailedPowersOfTen), n)
	}
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for q := detailedPowersOfTenMinExp10; q <= detailedPowersOfTenMaxExp10; q++ {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(q, -q))), nil)
		top := new(big.Int)
		switch s := p.BitLen() - 128; {
		case q < 0: // 2^(bits+127) / 10^-q lies strictly between 2^127 and 2^128
			top.Quo(top.Lsh(big.NewInt(1), uint(p.BitLen()+127)), p)
		case s >= 0:
			top.Rsh(p, uint(s))
		default:
			top.Lsh(p, uint(-s))
		}
		want := [2]uint64{new(big.Int).And(top, mask).Uint64(), new(big.Int).Rsh(top, 64).Uint64()}
		if got := detailedPowersOfTen[q-detailedPowersOfTenMinExp10]; got != want {
			t.Errorf("1e%d: row %#x, math/big says %#x", q, got, want)
		}
	}
}

// A keyed random sweep over the shapes a writer prints a float64 in, plus the
// edge list: Number reads each as strconv.ParseFloat does, by its bits.
func TestFastFloatMatchesStrconv(t *testing.T) {
	for _, tok := range edgeFloats {
		sameAsStrconv(t, tok)
	}
	n := 250_000 // per shape
	if testing.Short() {
		n /= 10
	}
	shapes := []func(r *rand.Rand) string{
		func(r *rand.Rand) string { // shortest form, random magnitude
			return strconv.FormatFloat(r.Float64()*math.Pow(10, float64(r.Intn(80)-40)), 'g', -1, 64)
		},
		func(r *rand.Rand) string { // shortest form, random bit pattern
			f := math.Float64frombits(r.Uint64())
			if math.IsNaN(f) || math.IsInf(f, 0) {
				f = 0
			}
			return strconv.FormatFloat(f, 'g', -1, 64)
		},
		func(r *rand.Rand) string { // fixed point, 0–24 decimals
			return strconv.FormatFloat(r.Float64()*math.Pow(10, float64(r.Intn(30)-10)), 'f', r.Intn(25), 64)
		},
		func(r *rand.Rand) string { // exponent form, 0–21 digits after the point
			return strconv.FormatFloat(r.Float64()*math.Pow(10, float64(r.Intn(649)-340)), 'e', r.Intn(22), 64)
		},
	}
	for s, shape := range shapes {
		r := rng.NewRand(1, "jsonscan/fastfloat", int64(s))
		for range n {
			tok := shape(r)
			if r.Intn(2) == 0 && tok[0] != '-' {
				tok = "-" + tok
			}
			sameAsStrconv(t, tok)
		}
	}
}

// What the fast path gives to strconv, it gives up before deciding anything:
// a twentieth significant digit, an exponent outside the table, and the
// exact halfway point 2^53+1 (Eisel–Lemire's ambiguity). Each still reads as
// strconv reads it.
func TestFastFloatDeclines(t *testing.T) {
	for _, tok := range []string{
		"12345678901234567890", "1.0000000000000000000", "-0.00123456789012345678901",
		"1e64", "1e-65", "1.5e300", "-2.5e-310", "1e100000",
		"9007199254740993", "-9007199254740993",
	} {
		if f, ok := fastFloat([]byte(tok)); ok {
			t.Errorf("fastFloat(%q) = %v, want it declined", tok, f)
		}
		sameAsStrconv(t, tok)
	}
}

// FuzzNumber: on any token scanNumber takes whole, Number into a float64 is
// strconv.ParseFloat by its bits, with an error exactly where strconv has one.
func FuzzNumber(f *testing.F) {
	for _, tok := range edgeFloats {
		f.Add([]byte(tok))
	}
	f.Fuzz(func(t *testing.T, tok []byte) {
		if end, _ := scanNumber(tok, 0); end == 0 || end != len(tok) {
			return
		}
		sameAsStrconv(t, string(tok))
	})
}
