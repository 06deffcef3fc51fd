package simtrace

import (
	"math"
	"strconv"
	"testing"
)

// checkFastPaths scans lit with the scanner and, when the scanner
// accepts all of it, requires each fast path either to defer to strconv
// or to return exactly strconv's value: the same int64, or the same
// float64 bits, sign of zero included. It reports whether each fast
// path took the literal.
func checkFastPaths(t *testing.T, lit string) (intFast, floatFast, ok bool) {
	t.Helper()
	s := scanner{data: []byte(lit)}
	n, err := s.number()
	if err != nil || s.pos != len(lit) {
		return false, false, false
	}
	if v, fast := n.fastInt(); fast {
		want, err := strconv.ParseInt(lit, 10, 64)
		if err != nil || v != want {
			t.Errorf("fastInt(%s) = %d, strconv.ParseInt = %d, %v", lit, v, want, err)
		}
		intFast = true
	}
	if f, fast := n.fastFloat(); fast {
		want, err := strconv.ParseFloat(lit, 64)
		if err != nil || math.Float64bits(f) != math.Float64bits(want) {
			t.Errorf("fastFloat(%s) = %v (%#x), strconv.ParseFloat = %v (%#x), %v",
				lit, f, math.Float64bits(f), want, math.Float64bits(want), err)
		}
		floatFast = true
	}
	return intFast, floatFast, true
}

// numberLiterals are the edges of the fast paths: which literals take
// them, and that those return strconv's value.
var numberLiterals = []struct {
	lit                string
	intFast, floatFast bool
}{
	{"0", true, true},
	{"-0", true, true},
	{"-0.000", false, true},
	{"0.001", false, true},
	{"-0.00000000000001", false, true},  // 15 digits, leading zeros in the fraction
	{"0.000000000000001", false, false}, // 16 digits
	{"123456789012345", true, true},     // 15 digits
	{"1234567890123456", true, false},   // 16 digits
	{"1234567890.12345", false, true},   // 15 digits
	{"12345678901.23456", false, false}, // 16 digits
	{"999999999999999", true, true},
	{"0.999999999999999", false, false}, // 16 digits with the leading zero
	{"99999999999999.9", false, true},   // 15 digits
	{"999999999999999.9", false, false}, // 16 digits
	{"9999999999999.999", false, false}, // 16 digits above 2^53: m/10^k rounds twice
	{"9007199254740993", true, false},   // 2^53+1: exact as an int, rounds as a float
	{"-9007199254740993", true, false},
	{"123456789012345678", true, false},   // 18 digits
	{"-999999999999999999", true, false},  // 18 digits
	{"1234567890123456789", false, false}, // 19 digits
	{"-9223372036854775808", false, false},
	{"99999999999999999999", false, false}, // 20 digits: wraps the mantissa
	{"1234567.890", false, true},           // a WriteChrome ts
	{"0.1", false, true},
	{"1e3", false, false},
	{"1E-2", false, false},
	{"-2.5e+10", false, false},
	{"0e0", false, false},
	{"-0.0e0", false, false},
}

func TestNumberFastPathsMatchStrconv(t *testing.T) {
	for _, c := range numberLiterals {
		intFast, floatFast, ok := checkFastPaths(t, c.lit)
		if !ok {
			t.Errorf("scanner rejected %s", c.lit)
			continue
		}
		if intFast != c.intFast || floatFast != c.floatFast {
			t.Errorf("%s: fast int %v float %v, want %v %v", c.lit, intFast, floatFast, c.intFast, c.floatFast)
		}
	}
	s := scanner{data: []byte("-0")}
	n, _ := s.number()
	if f, _ := n.fastFloat(); !math.Signbit(f) {
		t.Error("fastFloat(-0) lost the sign of zero")
	}
}

// FuzzNumberFastPaths checks, for every literal the scanner accepts,
// that the fast paths either defer to strconv or return its value bit
// for bit.
func FuzzNumberFastPaths(f *testing.F) {
	for _, c := range numberLiterals {
		f.Add(c.lit)
	}
	f.Fuzz(func(t *testing.T, lit string) {
		checkFastPaths(t, lit)
	})
}
