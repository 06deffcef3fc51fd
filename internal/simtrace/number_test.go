package simtrace

import (
	"encoding/json"
	"math"
	"strconv"
	"testing"
)

// checkNumberReaders runs compactInt and compactFloat on lit and, when
// either reads all of it, requires lit to be a JSON number and the value
// to be exactly strconv's: the same int64, or the same float64 bits. It
// reports whether each reader took the whole literal.
func checkNumberReaders(t *testing.T, lit string) (intWhole, floatWhole bool) {
	t.Helper()
	d := []byte(lit)
	var n int
	if i, ok := compactInt(d, 0, &n); ok && i == len(d) {
		want, err := strconv.ParseInt(lit, 10, 64)
		if err != nil || int64(n) != want {
			t.Errorf("compactInt(%s) = %d, strconv.ParseInt = %d, %v", lit, n, want, err)
		}
		intWhole = true
	}
	var f float64
	var has bool
	if i, ok := compactFloat(d, 0, &f, &has); ok && i == len(d) {
		want, err := strconv.ParseFloat(lit, 64)
		if err != nil || !has || math.Float64bits(f) != math.Float64bits(want) {
			t.Errorf("compactFloat(%s) = %v (%#x), strconv.ParseFloat = %v (%#x), %v",
				lit, f, math.Float64bits(f), want, math.Float64bits(want), err)
		}
		floatWhole = true
	}
	if (intWhole || floatWhole) && !json.Valid(d) {
		t.Errorf("a compact reader took %q, which is not JSON", lit)
	}
	return intWhole, floatWhole
}

// numberLiterals are the edges of the compact number readers: which
// literals they take whole, and that those give strconv's value.
var numberLiterals = []struct {
	lit                  string
	intWhole, floatWhole bool
}{
	{"0", true, true},
	{"-0", false, false}, // the compact layout writes no sign
	{"-7", false, false},
	{"0.001", false, true},
	{"0.00000000000001", false, true},   // 15 digits, leading zeros in the fraction
	{"0.000000000000001", false, false}, // 16 digits
	{"123456789012345", true, true},     // 15 digits
	{"1234567890123456", true, false},   // 16 digits
	{"1234567890.12345", false, true},   // 15 digits
	{"12345678901.23456", false, false}, // 16 digits
	{"999999999999999", true, true},
	{"0.999999999999999", false, false},    // 16 digits with the leading zero
	{"99999999999999.9", false, true},      // 15 digits
	{"999999999999999.9", false, false},    // 16 digits
	{"9999999999999.999", false, false},    // 16 digits above 2^53: m/10^k rounds twice
	{"9007199254740993", true, false},      // 2^53+1: exact as an int, rounds as a float
	{"123456789012345678", true, false},    // 18 digits
	{"999999999999999999", true, false},    // 18 digits
	{"1234567890123456789", false, false},  // 19 digits
	{"9223372036854775808", false, false},  // 19 digits, past int64
	{"99999999999999999999", false, false}, // 20 digits: wraps the mantissa
	{"1234567.890", false, true},           // a WriteChrome ts
	{"0.1", false, true},
	{"007", false, false}, // leading zero
	{"00.5", false, false},
	{"1.", false, false},
	{"1e3", false, false},
	{"1E-2", false, false},
	{"2.5e+10", false, false},
	{"0e0", false, false},
}

func TestNumberFastPathsMatchStrconv(t *testing.T) {
	for _, c := range numberLiterals {
		intWhole, floatWhole := checkNumberReaders(t, c.lit)
		if intWhole != c.intWhole || floatWhole != c.floatWhole {
			t.Errorf("%s: int reader took it %v, float reader %v, want %v %v",
				c.lit, intWhole, floatWhole, c.intWhole, c.floatWhole)
		}
	}
}

// FuzzNumberFastPaths checks, for every literal, that a compact number
// reader that takes it whole takes only a JSON number and gives
// strconv's value bit for bit.
func FuzzNumberFastPaths(f *testing.F) {
	for _, c := range numberLiterals {
		f.Add(c.lit)
	}
	f.Fuzz(func(t *testing.T, lit string) {
		checkNumberReaders(t, lit)
	})
}
