package sqltypes

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parseDateTimeEveryLayout is ParseDateTime without the layout guards: it
// tries every layout in order.
func parseDateTimeEveryLayout(s string) (time.Time, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return time.Time{}, false
	}
	for _, layout := range DateTimeLayouts {
		if t, err := time.Parse(layout, s); err == nil {
			return t.UTC(), true
		}
	}
	return time.Time{}, false
}

// TestLayoutGuardsCoverLayouts: every layout has a guard, and the shortest
// and longest strings each layout is documented to take pass it.
func TestLayoutGuardsCoverLayouts(t *testing.T) {
	if len(layoutGuards) != len(DateTimeLayouts) {
		t.Fatalf("%d layout guards for %d layouts", len(layoutGuards), len(DateTimeLayouts))
	}
	ref := time.Date(2014, 5, 2, 7, 8, 9, 123456789, time.FixedZone("", -7*3600))
	for i, layout := range DateTimeLayouts {
		s := ref.Format(layout)
		if !mayParse(i, s) {
			t.Errorf("layout %q: its own rendering %q fails the guard", layout, s)
		}
	}
}

// FuzzParseDateTime checks that ParseDateTime agrees with trying every
// layout through time.Parse: the fixed-width decoder decides only the
// shapes one layout alone could take, and the guards only skip layouts that
// could not have parsed.
func FuzzParseDateTime(f *testing.F) {
	for _, s := range []string{
		"2014-05-02T10:00:00Z", "2014-05-02T1:00:00Z", "2014-05-02T10:00:00.5+02:00",
		"2014-05-02 10:00:00", "2014-05-02 1:00:00", "2014-05-02  10:00:00.123",
		"2014-05-02T10:00:00", "2014-05-02", "05/02/2014", "2014/05/02",
		"05/02/2014 10:00:00", "05/02/2014 9:00:00,5", " 2014-05-02 ", "2014-13-02",
		"-014-05-02", "+2014-05-02", "station-3", "1.5", "", "2014-05-02T",
		"2016-02-29 23:59:59", "1900-02-29", "2000-02-29", "2014-04-31", "0000-01-01",
		"2014-05-02 24:00:00", "2014-05-02 10:60:00", "2014-05-02T10:00:60Z", "12/31/9999 23:59:59",
		"2014-00-10", "2014-05-00", "2014-05-0a", "2014-05-02x10:00:00",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gotOK := ParseDateTime(s)
		want, wantOK := parseDateTimeEveryLayout(s)
		if gotOK != wantOK || !got.Equal(want) || got.Location() != want.Location() {
			t.Fatalf("ParseDateTime(%q) = %v, %v; every layout gives %v, %v", s, got, gotOK, want, wantOK)
		}
	})
}

// parseNumericRef and parseIntRef are ParseNumeric and ParseInt as they
// were before their fast paths: every string through strconv.
func parseNumericRef(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

func parseIntRef(s string) (int64, bool) {
	s = strings.TrimSpace(s)
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i, true
	}
	if f, ok := parseNumericRef(s); ok && f == math.Trunc(f) {
		return int64(f), true
	}
	return 0, false
}

// FuzzParseNumber holds ParseNumeric and ParseInt to their strconv-only
// forms: the same verdict, the same INT, and the same FLOAT bit for bit
// (any NaN equals any NaN).
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "-0.0", "+0", "+7", "-12", "007", "-000.500", "1.5", " 42 ", "\t-12\n",
		".5", "5.", ".", "-.", "+", "-", "", " ", "1..2", "1.2.3", "--1", "+-1",
		"123456789012345", "1234567890123456", "0.123456789012345", "1.234567890123456",
		"999999999999999.9", "0.0000000000000000000001", "1.00000000000000000000000",
		"0.1", "0.3", "2.675", "9007199254740993", "4503599627370497.5",
		"1e3", "1E-3", "-2.5e+10", "1e400", "1e-400", "3.0", "3.5", "1e3.5",
		"1_000", "1_0.5", "0x1p4", "0x10", "inf", "-Inf", "NaN", "nan", "infinity",
		"\u00a01\u00a0", "\u20281", "1\u0085", "\u30001", "１",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "99999999999999999999", "9223372036854775807.0",
		"-9223372036854775808.0", "1e19", "-1e19",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		gotF, gotOK := ParseNumeric(s)
		wantF, wantOK := parseNumericRef(s)
		same := math.Float64bits(gotF) == math.Float64bits(wantF) || math.IsNaN(gotF) && math.IsNaN(wantF)
		if gotOK != wantOK || !same {
			t.Fatalf("ParseNumeric(%q) = %v (%#x), %v; strconv gives %v (%#x), %v",
				s, gotF, math.Float64bits(gotF), gotOK, wantF, math.Float64bits(wantF), wantOK)
		}
		gotI, gotOK := ParseInt(s)
		wantI, wantOK := parseIntRef(s)
		if gotOK != wantOK || gotI != wantI {
			t.Fatalf("ParseInt(%q) = %d, %v; strconv gives %d, %v", s, gotI, gotOK, wantI, wantOK)
		}
	})
}

// TestTrimSpaceMatchesStrings: TrimSpace trims what strings.TrimSpace
// trims, the non-ASCII spaces included.
func TestTrimSpaceMatchesStrings(t *testing.T) {
	for _, s := range []string{
		"", " ", "a", " a", "a ", "\ta\r\n", "\va\f", "\u00a0a", "a\u0085", "\u3000a\u3000",
		"\u200ba", "é", "aé", "\xffa\xff", "a b",
	} {
		if got, want := TrimSpace(s), strings.TrimSpace(s); got != want {
			t.Errorf("TrimSpace(%q) = %q, want %q", s, got, want)
		}
	}
}

// TestParseAsMatchesCast: ParseAs parses each type directly and must agree
// with casting the trimmed text, as it did when it went through Cast.
func TestParseAsMatchesCast(t *testing.T) {
	inputs := []string{
		"", " ", "0", "-0", "+7", " 42 ", "3.0", "1e3", "3.7", "1e300", "-1e300",
		"9223372036854775807", "9223372036854775808", "-9223372036854775809",
		"99999999999999999999", "inf", "-Inf", "NaN", "0x1p4", "1_000", ".5",
		"2014-05-02", "2014-05-02 10:00:00", " 05/02/2014 ", "2014-05-02T10:00:00Z",
		"true", "FALSE", "1", "yes", "abc", "\t-12\n",
	}
	for _, s := range inputs {
		for _, typ := range []Type{Bool, Int, Float, DateTime, String} {
			got, gotOK := ParseAs(s, typ)
			var want Value
			wantOK := true
			switch trimmed := strings.TrimSpace(s); {
			case trimmed == "":
				want = TypedNull(typ)
			case typ == String:
				want = NewString(s)
			default:
				var err error
				want, err = Cast(NewString(trimmed), typ)
				wantOK = err == nil
			}
			if gotOK != wantOK || gotOK && got != want {
				t.Errorf("ParseAs(%q, %s) = %v (%s), %v; want %v (%s), %v",
					s, typ, got, got.Type(), gotOK, want, want.Type(), wantOK)
			}
		}
	}
}

// FuzzProbe holds NewProbe to Compare: a literal and a column cell, each a
// type tag and text, the cell cast to its column's type. Whatever the
// probe's mode, the comparison it gives — Compare against Lit for a native
// probe, CompareString for a per-row one, Unknown for never — must be
// True under every operator exactly when Compare(cell, literal) is; and a
// native Lit must be in the column's domain, where the typed kernels read it.
func FuzzProbe(f *testing.F) {
	// A literal tag past these types is NULL.
	types := []Type{Bool, Int, Float, DateTime, String}
	// lt, eq, gt of =, <>, <, <=, >, >=.
	ops := [][3]bool{
		{false, true, false}, {true, false, true}, {true, false, false},
		{true, true, false}, {false, false, true}, {false, true, true},
	}
	texts := []string{
		"NaN", "-0", "0", "+Inf", "-Inf", " 5 ", "5", "1.5", "", " ", "abc", "1",
		" 1 ", "true", "0x10", "1e400", "9007199254740993", "2014-05-02",
		" 2014-05-02 10:00:00 ", "1600-01-01", "2400-01-01 00:00:00", "05/02/2014",
	}
	for _, lit := range texts {
		for k := range types {
			for c := range types {
				for _, cell := range texts {
					f.Add(uint8(k), lit, uint8(c), cell)
				}
			}
		}
	}
	f.Add(uint8(len(types)), "", uint8(1), "5")
	f.Fuzz(func(t *testing.T, litTag uint8, litText string, colTag uint8, cellText string) {
		col := types[int(colTag)%len(types)]
		cell, err := Cast(NewString(cellText), col)
		if err != nil {
			return
		}
		var lit Value
		if k := int(litTag) % (len(types) + 1); k < len(types) {
			if lit, err = Cast(NewString(litText), types[k]); err != nil {
				return
			}
		}
		p := NewProbe(lit, col)
		var c int
		var ok bool
		switch p.Mode {
		case ProbeNative:
			if probeDomain(p.Lit.Type()) != probeDomain(col) {
				t.Fatalf("NewProbe(%v (%s), %s) is native with Lit %v (%s)", lit, lit.Type(), col, p.Lit, p.Lit.Type())
			}
			c, ok = Compare(cell, p.Lit)
		case ProbePerRow:
			if col != String {
				t.Fatalf("NewProbe(%v (%s), %s) is per-row", lit, lit.Type(), col)
			}
			c, ok = p.CompareString(cell.Str())
		}
		wc, wok := Compare(cell, lit)
		for _, op := range ops {
			got := ok && (c < 0 && op[0] || c == 0 && op[1] || c > 0 && op[2])
			want := wok && (wc < 0 && op[0] || wc == 0 && op[1] || wc > 0 && op[2])
			if got != want {
				t.Fatalf("%v (%s) op %v literal %v (%s): the probe (mode %d, Lit %v) says %v, Compare %v",
					cell, col, op, lit, lit.Type(), p.Mode, p.Lit, got, want)
			}
		}
	})
}

// probeDomain is the comparison domain of type t, named by one of its types.
func probeDomain(t Type) Type {
	if t == Bool || t == Int {
		return Float
	}
	return t
}
