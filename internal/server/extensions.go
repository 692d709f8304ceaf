package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"sqlshare/internal/jobs"
	"sqlshare/internal/recommend"
	"sqlshare/internal/workload"
)

// extensionRoutes registers the endpoints for the paper's announced
// next-release features: DOI minting (§5.2), query macros (§5.2), column
// patterns (§5.3), and recommendations (§8).
func (s *Server) extensionRoutes() {
	s.mux.HandleFunc("POST /api/datasets/{owner}/{name}/doi", s.handleMintDOI)
	s.mux.HandleFunc("GET /api/doi/{prefix}/{suffix}", s.handleResolveDOI)
	s.mux.HandleFunc("POST /api/macros", s.handleSaveMacro)
	s.mux.HandleFunc("GET /api/macros", s.handleListMacros)
	s.mux.HandleFunc("POST /api/macros/{name}/query", s.handleQueryMacro)
	s.mux.HandleFunc("POST /api/queries/expand", s.handleExpandPatterns)
	s.mux.HandleFunc("GET /api/recommendations", s.handleRecommend)
}

func (s *Server) handleMintDOI(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	full := r.PathValue("owner") + "." + r.PathValue("name")
	doi, err := s.cat.MintDOIContext(r.Context(), user, full)
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusCreated, map[string]string{"doi": doi})
}

func (s *Server) handleResolveDOI(w http.ResponseWriter, r *http.Request) {
	doi := r.PathValue("prefix") + "/" + r.PathValue("suffix")
	ds, err := s.cat.ResolveDOI(doi)
	if err != nil {
		s.writeErr(w, http.StatusNotFound, err)
		return
	}
	s.writeJSON(w, http.StatusOK, s.datasetJSON(ds.Owner, ds))
}

func (s *Server) handleSaveMacro(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	var req struct{ Name, Template string }
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	mac, err := s.cat.SaveMacroContext(r.Context(), user, req.Name, req.Template)
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusCreated, map[string]any{
		"name": mac.Name, "template": mac.Template, "params": mac.Params,
	})
}

func (s *Server) handleListMacros(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	var out []map[string]any
	for _, m := range s.cat.Macros(user) {
		out = append(out, map[string]any{
			"name": m.Name, "template": m.Template, "params": m.Params,
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleQueryMacro expands a macro and submits the result through the
// asynchronous query protocol, returning the job identifier.
func (s *Server) handleQueryMacro(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	var args map[string]string
	if err := json.NewDecoder(r.Body).Decode(&args); err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	sql, err := s.cat.ExpandMacro(user, r.PathValue("name"), args)
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	j := s.startJob(r, user, sql, 0, false)
	s.writeJSON(w, http.StatusAccepted, map[string]string{
		"id": j.ID, "status": jobs.Running, "sql": sql,
	})
}

func (s *Server) handleExpandPatterns(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	var req struct{ SQL string }
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.SQL == "" {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("sql is required"))
		return
	}
	expanded, err := s.cat.ExpandPatterns(user, req.SQL)
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"sql": expanded})
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	dataset := r.URL.Query().Get("dataset")
	if dataset == "" {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("dataset parameter is required"))
		return
	}
	ds, err := s.cat.Dataset(user, dataset)
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	cols, err := recommend.CatalogColumns(s.cat, user, ds.FullName())
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	eng := recommend.New(workload.NewCorpus("live", s.cat))
	recs := eng.ForDataset(user, ds.FullName(), cols, 5)
	out := make([]map[string]any, 0, len(recs))
	for _, rec := range recs {
		out = append(out, map[string]any{
			"sql": rec.SQL, "support": rec.Support, "complexity": rec.Complexity,
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}
