package server

import (
	"fmt"
	"net/http"
	"os"
	"strconv"
)

// handleTraces lists the head-sample summaries (every finished request)
// plus the store census. ?n= bounds the list (default 100).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("n must be a non-negative integer"))
			return
		}
		n = v
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"stats":  s.traces.Stats(),
		"traces": s.traces.Summaries(n),
	})
}

// handleTrace returns one retained span tree. The two 404s carry distinct
// codes (see README): trace_unknown (no trace with this ID ever finished
// here) and trace_sampled_out (the trace finished but tail sampling kept
// only its summary — it was fast, successful and cache-friendly).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, seen := s.traces.Get(id)
	if t != nil {
		s.writeJSON(w, http.StatusOK, t)
		return
	}
	if seen {
		s.writeErrCode(w, http.StatusNotFound, "trace_sampled_out",
			fmt.Errorf("trace %q finished but only its summary was retained (tail sampling)", id))
		return
	}
	s.writeErrCode(w, http.StatusNotFound, "trace_unknown",
		fmt.Errorf("trace %q not found", id))
}

// DumpTraces flushes every retained span tree to path as JSONL — the
// graceful-drain hook, so post-mortem traces survive a restart. It returns
// how many traces were written. An empty path writes nothing.
func (s *Server) DumpTraces(path string) (int, error) {
	if path == "" {
		return 0, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := s.traces.Dump(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}
