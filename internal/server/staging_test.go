package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// stage posts body to /api/staging as user alice and returns the status
// and the staged id.
func stage(t *testing.T, url string, body io.Reader) (int, string) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/api/staging", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(userHeader, "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out["stagedId"]
}

// TestStageSizedAndChunkedBodiesMatch: a body sent with its length and the
// same body sent chunked, of unknown length, stage the same bytes.
func TestStageSizedAndChunkedBodiesMatch(t *testing.T) {
	c, _, srv := newTestServerObs(t)
	var b strings.Builder
	b.WriteString("id,v\n")
	for i := 0; i < 200000; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i, i*7)
	}
	data := []byte(b.String())
	code, sized := stage(t, c.srv.URL, bytes.NewReader(data))
	if code != http.StatusCreated {
		t.Fatalf("sized body: status %d", code)
	}
	// A reader of unknown length makes the client send the body chunked.
	code, chunked := stage(t, c.srv.URL, io.MultiReader(bytes.NewReader(data[:1000]), bytes.NewReader(data[1000:])))
	if code != http.StatusCreated {
		t.Fatalf("chunked body: status %d", code)
	}
	for name, id := range map[string]string{"sized": sized, "chunked": chunked} {
		got, ok := srv.staged.get(id)
		if !ok || !bytes.Equal(got, data) {
			t.Errorf("%s body staged %d bytes (found %v), want the %d sent", name, len(got), ok, len(data))
		}
	}
}

// readCounter counts the Read calls made on it.
type readCounter struct {
	io.Reader
	reads int
}

func (r *readCounter) Read(p []byte) (int, error) {
	r.reads++
	return r.Reader.Read(p)
}

// TestStageOversizeIs413: a declared length over the limit is refused with
// 413 before any of the body is read.
func TestStageOversizeIs413(t *testing.T) {
	_, _, srv := newTestServerObs(t)
	body := &readCounter{Reader: strings.NewReader("a,b\n1,2\n")}
	req := httptest.NewRequest("POST", "/api/staging", body)
	req.ContentLength = maxStageBytes + 1
	req.Header.Set(userHeader, "alice")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("declared oversize: status %d, want 413", rec.Code)
	}
	if body.reads != 0 {
		t.Errorf("declared oversize: body read %d times, want none", body.reads)
	}
}

// TestReadBodyLimit: a body of unknown length that overruns the limit is
// 413, one within it is read whole.
func TestReadBodyLimit(t *testing.T) {
	for _, c := range []struct {
		body   string
		status int
	}{
		{"0123456789", 0},
		{"0123456789a", http.StatusRequestEntityTooLarge},
	} {
		req := httptest.NewRequest("POST", "/api/staging", io.MultiReader(strings.NewReader(c.body)))
		req.ContentLength = -1
		got, status, err := readBody(httptest.NewRecorder(), req, 10)
		if status != c.status || (err == nil) != (c.status == 0) {
			t.Errorf("%d-byte body: status %d, error %v; want status %d", len(c.body), status, err, c.status)
		}
		if err == nil && string(got) != c.body {
			t.Errorf("%d-byte body: read %q", len(c.body), got)
		}
	}
}
