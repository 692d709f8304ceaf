// Package server implements the SQLShare REST interface (paper §3.3–3.4,
// Fig 3): dataset upload with server-side staging, view creation and
// sharing, memoized previews, and the asynchronous query protocol in which a
// submitted query receives an identifier that the client polls for status
// and results ("an obvious choice over an atomic request, as long-running
// queries would reduce the requests the REST server can handle").
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlshare/internal/catalog"
	"sqlshare/internal/engine"
	"sqlshare/internal/history"
	"sqlshare/internal/ingest"
	"sqlshare/internal/jobs"
	"sqlshare/internal/obs"
	"sqlshare/internal/ops"
	"sqlshare/internal/qcache"
	"sqlshare/internal/repl"
)

// userHeader carries the authenticated identity. The production system
// used federated web auth; the reproduction trusts a header.
const userHeader = "X-SQLShare-User"

// Server is the REST layer over a catalog.
type Server struct {
	cat     *catalog.Catalog
	jobs    *jobs.Table
	staged  *stageTable
	mux     *http.ServeMux
	handler http.Handler // mux wrapped in the observability middleware
	log     *slog.Logger
	metrics *obs.PlatformMetrics
	// maxRows is the per-operator row limit applied to submitted queries
	// (0 = unlimited); exceeding it maps to HTTP 422.
	maxRows int
	// maxBytes is the per-query in-flight memory budget applied to
	// submitted queries (0 = unlimited); exceeding it maps to HTTP 422,
	// mirroring maxRows.
	maxBytes int64
	// ops is the live-operations registry: every in-flight query is
	// visible at GET /api/queries/running and killable at
	// DELETE /api/queries/{id}/kill.
	ops *ops.Registry
	// tracing controls whether submitted jobs run with per-operator
	// instrumentation (on by default; see SetTracing).
	tracing bool
	// parallelism is the default per-query worker cap for submitted jobs
	// (0 = all of GOMAXPROCS, 1 = serial); a job request may lower-or-raise
	// it per query. See SetParallelism.
	parallelism int
	// durability is the catalog's WAL/checkpoint subsystem when the server
	// runs with a data directory; nil for in-memory deployments.
	durability *catalog.Durability
	// cache is the version-fenced result cache when enabled via
	// ConfigureCache; nil means every query executes.
	cache *qcache.Cache
	// traces is the span trace store behind /api/traces; nil when span
	// tracing is disabled (SetTracing(false) disables it alongside the
	// operator tracer).
	traces *obs.TraceStore
	// lightTrace holds a per-route counter for high-frequency idempotent
	// routes whose traces are head-sampled at ingest; see withObservability.
	lightTrace map[string]*atomic.Uint64
	// replSource, when non-nil, serves this node's WAL to followers over
	// /api/repl/* (EnableReplication).
	replSource *repl.Source
	// follower is the WAL-pulling loop on replica nodes; its applied LSN
	// shows in health and replication status.
	follower *repl.Follower
	// stopFollower cancels the follower loop when the node is promoted.
	stopFollower func()
	// replica marks the node read-only for catalog mutations (409
	// read_only_replica) until promotion flips it; atomic because failover
	// promotes at runtime, concurrent with request handling.
	replica atomic.Bool
	// nodeName labels this node in cluster maps, acks and health output.
	nodeName string
	// minLSNWait bounds the min-LSN read gate's wait (SetMinLSNWait;
	// defaultMinLSNWait when zero).
	minLSNWait time.Duration
}

// New builds a Server over the given catalog. The server owns a metrics
// registry (exported at GET /metrics and GET /debug/vars) and attaches it
// to the catalog so the query path reports through it.
func New(cat *catalog.Catalog) *Server {
	s := &Server{
		cat:     cat,
		jobs:    &jobs.Table{Prefix: "q-"},
		staged:  newStageTable(),
		mux:     http.NewServeMux(),
		log:     slog.Default(),
		metrics: obs.NewPlatformMetrics(obs.NewRegistry()),
		tracing: true,
		// Status polls and scrape endpoints run orders of magnitude more
		// often than queries and always produce the same two-span tree;
		// tracing every one would evict the interesting query summaries
		// from the bounded summary ring. They are head-sampled at ingest
		// instead (1 in lightTraceEvery; see withObservability).
		lightTrace: map[string]*atomic.Uint64{
			"GET /api/queries/{id}":    new(atomic.Uint64),
			"GET /api/queries/running": new(atomic.Uint64),
			"GET /api/health":          new(atomic.Uint64),
			"GET /metrics":             new(atomic.Uint64),
			"GET /debug/vars":          new(atomic.Uint64),
		},
		ops: ops.NewRegistry(),
	}
	cat.SetMetrics(s.metrics)
	cat.SetOpsRegistry(s.ops)
	s.registerOverloadGauges()
	// The default trace store retains everything (TraceConfig zero value) —
	// right for tests and development; production servers pass a slow
	// threshold via ConfigureTraces so only the interesting tail is kept.
	s.ConfigureTraces(obs.TraceConfig{})
	// Swap the catalog's history for one that reports through this server's
	// metrics; persistence and the slow-query log stay off until a
	// ConfigureHistory call.
	if err := s.ConfigureHistory(history.Config{}); err != nil {
		// Unreachable: an empty config opens no files.
		panic(err)
	}
	s.routes()
	s.handler = s.withObservability(s.mux)
	return s
}

// ConfigureHistory replaces the catalog's history — the query log behind
// /api/insights — with one built from cfg. The server supplies the logger,
// the history metrics and the usage meter of its registry; callers set
// persistence (LogPath), the slow-query threshold and the session gap. Call
// before serving traffic.
func (s *Server) ConfigureHistory(cfg history.Config) error {
	if cfg.Logger == nil {
		cfg.Logger = s.log
	}
	cfg.SlowQueries = s.metrics.SlowQueries
	cfg.RecordsTotal = s.metrics.HistoryRecords
	cfg.Usage = s.metrics.Usage
	h, err := history.New(cfg)
	if err != nil {
		return err
	}
	s.cat.History().Close()
	s.cat.SetHistory(h)
	return nil
}

// History exposes the insights subsystem (for tests and the server main).
func (s *Server) History() *history.History { return s.cat.History() }

// ConfigureCache attaches a version-fenced result cache of maxBytes
// capacity (ttl > 0 adds age-based expiry). maxBytes <= 0 detaches. The
// cache's eviction counter and byte gauge report through the server's
// metric registry; hit/miss counting happens on the catalog query path.
// Call before serving traffic.
func (s *Server) ConfigureCache(maxBytes int64, ttl time.Duration) {
	if maxBytes <= 0 {
		s.cache = nil
		s.cat.SetQueryCache(nil)
		return
	}
	qc := qcache.New(maxBytes, ttl)
	qc.SetMetrics(s.metrics.CacheEvictions, s.metrics.CacheBytes)
	s.cache = qc
	s.cat.SetQueryCache(qc)
}

// Cache exposes the result cache, or nil when caching is off.
func (s *Server) Cache() *qcache.Cache { return s.cache }

// SetTracing toggles per-operator instrumentation for submitted jobs.
// Tracing is on by default; deployments chasing the last few percent of
// overhead can turn it off, at the price of /api/queries/{id}/trace
// returning 404 and EXPLAIN ANALYZE being the only source of actuals.
// Turning it off also disables span tracing (the /api/traces store):
// the two tracers are one operational switch.
func (s *Server) SetTracing(on bool) {
	s.tracing = on
	if !on {
		s.traces = nil
	} else if s.traces == nil {
		s.ConfigureTraces(obs.TraceConfig{})
	}
}

// ConfigureTraces replaces the span trace store with one built from cfg
// (see obs.TraceConfig for the tail-sampling knobs). Call before serving
// traffic.
func (s *Server) ConfigureTraces(cfg obs.TraceConfig) {
	st := obs.NewTraceStore(cfg)
	st.SetMetrics(s.metrics.TracesTotal, s.metrics.TracesRetained)
	s.traces = st
}

// Traces exposes the span trace store, or nil when span tracing is off.
func (s *Server) Traces() *obs.TraceStore { return s.traces }

// Close releases server-held resources (the history JSONL log).
func (s *Server) Close() error { return s.cat.History().Close() }

// SetLogger replaces the request logger (slog.Default() until then).
// Call before serving traffic.
func (s *Server) SetLogger(l *slog.Logger) { s.log = l }

// SetDurability attaches the catalog's durability subsystem: WAL and
// recovery metrics flow into the server's registry, and POST
// /api/admin/checkpoint triggers snapshots. Call before serving traffic.
func (s *Server) SetDurability(d *catalog.Durability) {
	s.durability = d
	if d != nil {
		d.SetMetrics(s.metrics)
	}
}

// SetMaxRows sets the per-operator row limit for submitted queries
// (0 = unlimited). Call before serving traffic.
func (s *Server) SetMaxRows(n int) { s.maxRows = n }

// SetMaxQueryBytes sets the per-query in-flight memory budget for
// submitted queries (0 = unlimited). A query whose accounted working
// state — hash-join builds, sort buffers, aggregation state, intermediate
// and final results — exceeds the budget aborts with engine.ErrMemLimit,
// reported as HTTP 422. Call before serving traffic.
func (s *Server) SetMaxQueryBytes(n int64) { s.maxBytes = n }

// Ops exposes the live-operations registry (for tests and benchmarks).
func (s *Server) Ops() *ops.Registry { return s.ops }

// SetParallelism sets the default intra-query worker cap for submitted
// queries: 0 = automatic (all of GOMAXPROCS), 1 = serial, N>1 = at most N
// workers per query. Results are identical at every setting. Call before
// serving traffic.
func (s *Server) SetParallelism(n int) { s.parallelism = n }

// Metrics exposes the server's metric bundle (for tests and the debug
// listener in cmd/sqlshare-server).
func (s *Server) Metrics() *obs.PlatformMetrics { return s.metrics }

// Registry exposes the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.metrics.Registry }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

func (s *Server) routes() {
	s.mux.Handle("GET /metrics", s.metrics.Registry.Handler())
	s.mux.Handle("GET /debug/vars", s.metrics.Registry.ExpvarHandler())
	s.mux.HandleFunc("POST /api/users", s.handleCreateUser)
	s.mux.HandleFunc("GET /api/datasets", s.handleListDatasets)
	s.mux.HandleFunc("GET /api/usage", s.handleUsage)
	s.mux.HandleFunc("POST /api/staging", s.handleStage)
	s.mux.HandleFunc("POST /api/datasets", s.handleCreateDataset)
	s.mux.HandleFunc("GET /api/datasets/{owner}/{name}", s.handleGetDataset)
	s.mux.HandleFunc("DELETE /api/datasets/{owner}/{name}", s.handleDeleteDataset)
	s.mux.HandleFunc("PUT /api/datasets/{owner}/{name}/meta", s.handleUpdateMeta)
	s.mux.HandleFunc("PUT /api/datasets/{owner}/{name}/permissions", s.handlePermissions)
	s.mux.HandleFunc("POST /api/datasets/{owner}/{name}/append", s.handleAppend)
	s.mux.HandleFunc("POST /api/datasets/{owner}/{name}/materialize", s.handleMaterialize)
	s.mux.HandleFunc("POST /api/queries", s.handleSubmitQuery)
	s.mux.HandleFunc("GET /api/queries/running", s.handleRunningQueries)
	s.mux.HandleFunc("DELETE /api/queries/{id}/kill", s.handleKillQuery)
	s.mux.HandleFunc("GET /api/health", s.handleHealth)
	s.mux.HandleFunc("GET /api/queries/{id}", s.handleQueryStatus)
	s.mux.HandleFunc("GET /api/queries/{id}/plan", s.handleQueryPlan)
	s.mux.HandleFunc("GET /api/queries/{id}/trace", s.handleQueryTrace)
	s.mux.HandleFunc("GET /api/insights/{section}", s.handleInsights)
	s.mux.HandleFunc("GET /api/traces", s.handleTraces)
	s.mux.HandleFunc("GET /api/traces/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /api/datasets/{owner}/{name}/data", s.handleDatasetData)
	s.mux.HandleFunc("GET /api/repl/wal", s.handleReplWAL)
	s.mux.HandleFunc("GET /api/repl/snapshot", s.handleReplSnapshot)
	s.mux.HandleFunc("POST /api/repl/ack", s.handleReplAck)
	s.mux.HandleFunc("GET /api/repl/status", s.handleReplStatus)
	s.mux.HandleFunc("GET /api/cluster/map", s.handleGetShardMap)
	s.mux.HandleFunc("PUT /api/cluster/map", s.handlePutShardMap)
	s.mux.HandleFunc("POST /api/admin/promote", s.handlePromote)
	s.mux.HandleFunc("POST /api/admin/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /api/admin/durability", s.handleDurability)
	s.mux.HandleFunc("GET /api/admin/cache", s.handleCacheStats)
	s.mux.HandleFunc("DELETE /api/admin/cache", s.handleCacheFlush)
	s.extensionRoutes()
}

// handleCacheStats reports the result cache census. Staleness needs no
// admin action — keys are version-fenced — so the cache endpoints are about
// observability (stats) and memory (flush), not correctness.
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	if s.cache == nil {
		s.writeErr(w, http.StatusConflict, fmt.Errorf("server is running without a result cache"))
		return
	}
	s.writeJSON(w, http.StatusOK, s.cache.Stats())
}

// handleCacheFlush empties the cache (operator hook for reclaiming memory).
func (s *Server) handleCacheFlush(w http.ResponseWriter, r *http.Request) {
	if s.cache == nil {
		s.writeErr(w, http.StatusConflict, fmt.Errorf("server is running without a result cache"))
		return
	}
	s.cache.Flush()
	s.writeJSON(w, http.StatusOK, map[string]bool{"flushed": true})
}

// handleCheckpoint snapshots the catalog on demand (an operator hook: take
// a snapshot before maintenance so the next boot replays nothing).
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.durability == nil {
		s.writeErr(w, http.StatusConflict, fmt.Errorf("server is running without a data directory"))
		return
	}
	stats, err := s.durability.Checkpoint()
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"path":     stats.Path,
		"lsn":      stats.LSN,
		"bytes":    stats.Bytes,
		"datasets": stats.Datasets,
		"users":    stats.Users,
		"tables":   stats.Tables,
		"duration": stats.Duration.String(),
	})
}

// handleDurability reports what recovery did at boot and the current LSN.
func (s *Server) handleDurability(w http.ResponseWriter, r *http.Request) {
	if s.durability == nil {
		s.writeErr(w, http.StatusConflict, fmt.Errorf("server is running without a data directory"))
		return
	}
	rec := s.durability.RecoveryStats()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"dir":              s.durability.Dir(),
		"lastLSN":          s.durability.LastLSN(),
		"snapshot":         rec.SnapshotPath,
		"snapshotLSN":      rec.SnapshotLSN,
		"snapshotsSkipped": rec.SnapshotsSkipped,
		"recordsReplayed":  rec.RecordsReplayed,
		"tornBytes":        rec.TornBytes,
		"recoveryDuration": rec.Duration.String(),
	})
}

func (s *Server) user(r *http.Request) (string, error) {
	u := r.Header.Get(userHeader)
	if u == "" {
		return "", fmt.Errorf("missing %s header", userHeader)
	}
	return u, nil
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already on the wire; all that is left is to
		// record the failure (most often a client that went away).
		s.log.Error("response encode failed", "status", status, "error", err)
	}
}

func (s *Server) writeErr(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeErrCode is writeErr with a machine-readable "code" beside the human
// "error" message, for endpoints where one HTTP status covers conditions a
// client must tell apart (e.g. the trace 404s: tracing off vs unknown ID).
func (s *Server) writeErrCode(w http.ResponseWriter, status int, code string, err error) {
	s.writeJSON(w, status, map[string]string{"error": err.Error(), "code": code})
}

func statusFor(err error) int {
	if catalog.IsAccessError(err) {
		return http.StatusForbidden
	}
	if errors.Is(err, engine.ErrRowLimit) || errors.Is(err, engine.ErrMemLimit) {
		return http.StatusUnprocessableEntity
	}
	if strings.Contains(err.Error(), "not found") {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// ---- users ----

func (s *Server) handleCreateUser(w http.ResponseWriter, r *http.Request) {
	var req struct{ Name, Email string }
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	u, err := s.cat.CreateUserContext(r.Context(), req.Name, req.Email)
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusCreated, u)
}

// ---- staging & upload (§3.1: files are staged server-side so a failed
// ingest can be retried without re-uploading) ----

type stageTable struct {
	mu    sync.Mutex
	seq   int
	files map[string][]byte
}

func newStageTable() *stageTable { return &stageTable{files: map[string][]byte{}} }

func (st *stageTable) put(data []byte) string {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	id := fmt.Sprintf("stage-%d", st.seq)
	st.files[id] = data
	return id
}

func (st *stageTable) get(id string) ([]byte, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	d, ok := st.files[id]
	return d, ok
}

func (s *Server) handleStage(w http.ResponseWriter, r *http.Request) {
	if _, err := s.user(r); err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.metrics.IngestBytes.Add(int64(len(data)))
	s.writeJSON(w, http.StatusCreated, map[string]string{"stagedId": s.staged.put(data)})
}

// handleCreateDataset creates a dataset either by ingesting a staged file
// ({"name": ..., "stagedId": ...}) or by saving a view ({"name": ...,
// "sql": ...}). Both paths implement "saving a query and giving it a name"
// as the single creation workflow (§3.2).
func (s *Server) handleCreateDataset(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	var req struct {
		Name        string
		StagedID    string `json:"stagedId"`
		SQL         string `json:"sql"`
		Description string
		Tags        []string
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	meta := catalog.Meta{Description: req.Description, Tags: req.Tags}
	switch {
	case req.StagedID != "":
		data, ok := s.staged.get(req.StagedID)
		if !ok {
			s.writeErr(w, http.StatusNotFound, fmt.Errorf("staged file %q not found", req.StagedID))
			return
		}
		rep, err := ingest.LoadBytes(req.Name, data, ingest.Options{})
		if err != nil {
			// The staged file survives; the client may retry with
			// different options without re-uploading.
			s.writeErr(w, http.StatusBadRequest, err)
			return
		}
		ds, err := s.cat.CreateDatasetFromTableContext(r.Context(), user, req.Name, rep.Table, meta)
		if err != nil {
			s.writeErr(w, statusFor(err), err)
			return
		}
		s.writeJSON(w, http.StatusCreated, map[string]any{
			"dataset": s.datasetJSON(user, ds),
			"ingest": map[string]any{
				"rows":             rep.Rows,
				"delimiter":        string(rep.Delimiter),
				"headerDetected":   rep.HeaderDetected,
				"defaultedColumns": rep.DefaultedColumns,
				"raggedRows":       rep.RaggedRows,
				"widenedColumns":   rep.WidenedColumns,
			},
		})
	case req.SQL != "":
		ds, err := s.cat.SaveViewContext(r.Context(), user, req.Name, req.SQL, meta)
		if err != nil {
			s.writeErr(w, statusFor(err), err)
			return
		}
		s.writeJSON(w, http.StatusCreated, map[string]any{"dataset": s.datasetJSON(user, ds)})
	default:
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("either stagedId or sql is required"))
	}
}

// datasetJSON renders ds with its preview as user reads it. The caller has
// already authorized user for ds; a preview read that fails anyway (the
// dataset was deleted or revoked in between) renders as no preview.
func (s *Server) datasetJSON(user string, ds *catalog.Dataset) map[string]any {
	pv, _ := s.cat.Preview(user, ds.FullName())
	return map[string]any{
		"owner":       ds.Owner,
		"name":        ds.Name,
		"fullName":    ds.FullName(),
		"sql":         ds.SQL,
		"description": ds.Meta.Description,
		"tags":        ds.Meta.Tags,
		"isWrapper":   ds.IsWrapper,
		"public":      ds.Visibility == catalog.Public,
		"created":     ds.Created,
		"previewCols": pv.Cols,
		"preview":     pv.Rows,
	}
}

// ---- datasets ----

// handleListDatasets lists (or, with ?q=, searches) the datasets visible
// to the user — the tag/description search of §3.2.
func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	var out []map[string]any
	for _, ds := range s.cat.SearchDatasets(user, r.URL.Query().Get("q")) {
		out = append(out, s.datasetJSON(user, ds))
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleUsage reports the user's storage consumption against their quota
// (the Quotas component of Fig 3).
func (s *Server) handleUsage(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"user":       user,
		"usedBytes":  s.cat.UserUsage(user),
		"quotaBytes": catalog.DefaultQuotaBytes,
	})
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	full := r.PathValue("owner") + "." + r.PathValue("name")
	ds, err := s.cat.Dataset(user, full)
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, s.datasetJSON(user, ds))
}

func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	full := r.PathValue("owner") + "." + r.PathValue("name")
	if err := s.cat.DeleteContext(r.Context(), user, full); err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]bool{"deleted": true})
}

func (s *Server) handleUpdateMeta(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	var req struct {
		Description string
		Tags        []string
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	full := r.PathValue("owner") + "." + r.PathValue("name")
	if err := s.cat.UpdateMetaContext(r.Context(), user, full, catalog.Meta{Description: req.Description, Tags: req.Tags}); err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]bool{"updated": true})
}

func (s *Server) handlePermissions(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	var req struct {
		Public    *bool
		ShareWith []string `json:"shareWith"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	full := r.PathValue("owner") + "." + r.PathValue("name")
	if req.Public != nil {
		v := catalog.Private
		if *req.Public {
			v = catalog.Public
		}
		if err := s.cat.SetVisibilityContext(r.Context(), user, full, v); err != nil {
			s.writeErr(w, statusFor(err), err)
			return
		}
	}
	for _, grantee := range req.ShareWith {
		if err := s.cat.ShareWithContext(r.Context(), user, full, grantee); err != nil {
			s.writeErr(w, statusFor(err), err)
			return
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]bool{"updated": true})
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	var req struct{ Source string }
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	full := r.PathValue("owner") + "." + r.PathValue("name")
	if err := s.cat.AppendContext(r.Context(), user, full, req.Source); err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]bool{"appended": true})
}

func (s *Server) handleMaterialize(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	var req struct{ As string }
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	full := r.PathValue("owner") + "." + r.PathValue("name")
	snap, err := s.cat.MaterializeContext(r.Context(), user, full, req.As)
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	s.writeJSON(w, http.StatusCreated, s.datasetJSON(user, snap))
}
