package server

import (
	"fmt"
	"net/http"
	"strconv"
)

// handleInsights serves the live §5-style workload analytics maintained by
// the history subsystem: the questions the paper answered offline over a
// multi-year log, answered continuously by the running server.
//
//	GET /api/insights/summary    headline aggregates + latency percentiles
//	GET /api/insights/operators  operator-frequency mix (Fig 9, live)
//	GET /api/insights/tables     table/column touch counts (Fig 4, live)
//	GET /api/insights/users      per-user volume, distinct queries, sessions
//	GET /api/insights/slow       retained slow entries (newest first)
//	GET /api/insights/sessions   idle-gap user sessions (§7)
//	GET /api/insights/usage      per-user/per-template CPU, rows, bytes meters
//	GET /api/insights/recent     last N log entries, as JSONL encodes them (?n=, default 50)
func (s *Server) handleInsights(w http.ResponseWriter, r *http.Request) {
	if _, err := s.user(r); err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	h := s.History()
	a := h.Analyzer()
	switch section := r.PathValue("section"); section {
	case "summary":
		sum := a.Summarize()
		s.writeJSON(w, http.StatusOK, map[string]any{
			"summary":         sum,
			"ring":            h.Size(),
			"logPath":         h.LogPath(),
			"slowThresholdMs": float64(h.SlowThreshold().Milliseconds()),
		})
	case "operators":
		s.writeJSON(w, http.StatusOK, map[string]any{"operators": a.OperatorMix()})
	case "tables":
		s.writeJSON(w, http.StatusOK, map[string]any{"tables": a.TableTouches()})
	case "users":
		s.writeJSON(w, http.StatusOK, map[string]any{"users": a.UserInsights()})
	case "slow":
		s.writeJSON(w, http.StatusOK, map[string]any{
			"thresholdMs": float64(h.SlowThreshold().Milliseconds()),
			"slow":        a.SlowStatements(),
		})
	case "sessions":
		s.writeJSON(w, http.StatusOK, map[string]any{"sessions": a.Sessions()})
	case "usage":
		// Per-user/per-template resource accounting, the input a fair
		// scheduler or admission control would read.
		s.writeJSON(w, http.StatusOK, a.Usage())
	case "recent":
		n := 50
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				s.writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", q))
				return
			}
			n = v
		}
		s.writeJSON(w, http.StatusOK, map[string]any{"records": h.Recent(n)})
	default:
		s.writeErr(w, http.StatusNotFound, fmt.Errorf("unknown insights section %q", section))
	}
}
