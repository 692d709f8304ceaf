package sqltypes

import (
	"strings"
	"testing"
	"time"
)

// parseDateTimeEveryLayout is parseDateTime without the layout guards: it
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

// FuzzParseDateTime checks that the guarded loop agrees with trying every
// layout: the guards only skip layouts that could not have parsed.
func FuzzParseDateTime(f *testing.F) {
	for _, s := range []string{
		"2014-05-02T10:00:00Z", "2014-05-02T1:00:00Z", "2014-05-02T10:00:00.5+02:00",
		"2014-05-02 10:00:00", "2014-05-02 1:00:00", "2014-05-02  10:00:00.123",
		"2014-05-02T10:00:00", "2014-05-02", "05/02/2014", "2014/05/02",
		"05/02/2014 10:00:00", "05/02/2014 9:00:00,5", " 2014-05-02 ", "2014-13-02",
		"-014-05-02", "+2014-05-02", "station-3", "1.5", "", "2014-05-02T",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gotOK := parseDateTime(s)
		want, wantOK := parseDateTimeEveryLayout(s)
		if gotOK != wantOK || !got.Equal(want) || got.Location() != want.Location() {
			t.Fatalf("parseDateTime(%q) = %v, %v; every layout gives %v, %v", s, got, gotOK, want, wantOK)
		}
	})
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
