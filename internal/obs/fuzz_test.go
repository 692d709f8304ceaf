package obs

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent: ParseTraceparent reads an untrusted header on every
// request. It never panics, and a valid context it returns is exactly what
// the trimmed input spells: "00-", a lower-hex 32-char trace id, "-", a
// lower-hex 16-char span id, "-" and two lower-hex flag digits, neither id
// all zeros.
func FuzzParseTraceparent(f *testing.F) {
	for _, s := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"  00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00\t",
		"00-abababababababababababababababab-00f067aa0ba902b7-01",
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-011",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e473z-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"00x4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0é",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, h string) {
		sc := ParseTraceparent(h)
		if !sc.Valid() {
			if sc != (SpanContext{}) {
				t.Fatalf("invalid context is not the zero value: %+v", sc)
			}
			return
		}
		h = strings.TrimSpace(h)
		if len(h) != 55 || !strings.HasPrefix(h, "00-") {
			t.Fatalf("accepted %q", h)
		}
		if h[3:35] != sc.TraceID || h[35] != '-' || h[36:52] != sc.SpanID || h[52] != '-' {
			t.Fatalf("%q parsed as %+v", h, sc)
		}
		for _, part := range []string{sc.TraceID, sc.SpanID, h[53:]} {
			if strings.Trim(part, "0123456789abcdef") != "" {
				t.Fatalf("%q accepted a part that is not lower hex: %q", h, part)
			}
		}
		if strings.Trim(sc.TraceID, "0") == "" || strings.Trim(sc.SpanID, "0") == "" {
			t.Fatalf("%q accepted an all-zero id", h)
		}
	})
}
