package cluster

// Router is the stateless front door of a sharded deployment: it owns no
// catalog and no WAL, only the placement map. Writes go to the owning
// shard's primary; read-only query submissions fan out to that shard's
// replicas, pinned by an LSN watermark so a client never reads earlier than
// its own acknowledged writes (a lagging replica answers 409
// replica_lagging and the router falls back to the primary); queries that
// reference datasets owned by users on different shards are scatter-
// gathered — each referenced dataset is fetched in typed form from its
// owning shard and the query runs on a router-local engine.
//
// "Stateless" means no durable state: the in-memory job→node routing cache
// and the LSN watermarks are reconstructible (a restarted router re-learns
// both from response headers and, for unknown job ids, a shard sweep).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/jobs"
	"sqlshare/internal/sqlparser"
	"sqlshare/internal/storage"
)

// Wire headers shared with internal/server. Spelled out here rather than
// imported so the placement/routing layer stays free of catalog-importing
// packages.
const (
	userHeader   = "X-SQLShare-User"
	lsnHeader    = "X-SQLShare-LSN"
	minLSNHeader = "X-SQLShare-Min-LSN"
)

// localJobPrefix namespaces scatter-gather jobs the router executes itself;
// node job prefixes must not collide with it.
const localJobPrefix = "r-q-"

// maxProxyBody caps a buffered request body (the staging upload cap).
const maxProxyBody = 256 << 20

// Router routes the SQLShare REST API across a sharded cluster.
type Router struct {
	client *http.Client
	log    *slog.Logger
	mux    *http.ServeMux

	mu        sync.RWMutex
	m         *Map
	watermark map[int]uint64 // shard ID → highest LSN seen in responses

	rr      atomic.Uint64 // round-robin cursor for replica fan-out
	jobs    sync.Map      // job id → node base URL (routing cache)
	local   jobs.Table    // scatter-gather executions, answered by the router itself
	maxRows int
}

// NewRouter builds a router over the placement map. client carries the
// transport to the nodes (fault-injection shims go here); nil means
// http.DefaultClient.
func NewRouter(m *Map, client *http.Client) *Router {
	if client == nil {
		client = http.DefaultClient
	}
	rt := &Router{
		client:    client,
		log:       slog.Default(),
		mux:       http.NewServeMux(),
		m:         m,
		watermark: map[int]uint64{},
		local:     jobs.Table{Prefix: localJobPrefix, Mode: "scatter-gather"},
	}
	rt.mux.HandleFunc("POST /api/queries", rt.handleSubmit)
	rt.mux.HandleFunc("GET /api/queries/{id}", rt.handleJob)
	rt.mux.HandleFunc("GET /api/queries/{id}/plan", rt.handleJob)
	rt.mux.HandleFunc("GET /api/queries/{id}/trace", rt.handleJob)
	rt.mux.HandleFunc("DELETE /api/queries/{id}/kill", rt.handleKill)
	rt.mux.HandleFunc("GET /api/datasets/{owner}/{name}/data", rt.handleData)
	rt.mux.HandleFunc("GET /api/cluster/map", rt.handleMapGet)
	rt.mux.HandleFunc("PUT /api/cluster/map", rt.handleMapPut)
	rt.mux.HandleFunc("GET /api/health", rt.handleHealth)
	rt.mux.HandleFunc("/", rt.handleProxy)
	return rt
}

// SetLogger replaces the router's logger.
func (rt *Router) SetLogger(l *slog.Logger) { rt.log = l }

// SetMaxRows caps router-local scatter-gather executions (0 = unlimited).
func (rt *Router) SetMaxRows(n int) { rt.maxRows = n }

// SetMap repoints the router at a new placement map — the failover
// controller's last step after promoting a replica.
func (rt *Router) SetMap(m *Map) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.m == nil || m.Epoch >= rt.m.Epoch {
		rt.m = m
	}
}

// Map returns the placement map the router currently routes by.
func (rt *Router) Map() *Map {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.m
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// watermarkFor is the LSN floor for reads against a shard: the highest LSN
// any response from that shard has carried through this router.
func (rt *Router) watermarkFor(shard int) uint64 {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.watermark[shard]
}

// noteLSN advances a shard's watermark from a response's LSN header. Write
// responses carry the post-commit durable LSN; recording read responses too
// makes reads monotonic across replicas.
func (rt *Router) noteLSN(shard int, resp *http.Response) {
	v := resp.Header.Get(lsnHeader)
	if v == "" {
		return
	}
	lsn, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return
	}
	rt.mu.Lock()
	if lsn > rt.watermark[shard] {
		rt.watermark[shard] = lsn
	}
	rt.mu.Unlock()
}

// do sends one request to a node, forwarding identity and trace headers,
// and records the response LSN against the shard's watermark.
func (rt *Router) do(ctx context.Context, method, node, uri string, src http.Header, body []byte, shard int, minLSN uint64) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, node+uri, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for _, h := range []string{userHeader, "Content-Type", "traceparent"} {
		if v := src.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	if minLSN > 0 {
		req.Header.Set(minLSNHeader, strconv.FormatUint(minLSN, 10))
	}
	resp, err := rt.client.Do(req)
	if err == nil {
		rt.noteLSN(shard, resp)
	}
	return resp, err
}

// relay copies a node response to the client.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header()[k] = append(w.Header()[k], v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// relayBytes is relay for an already-buffered response body.
func (rt *Router) relayBytes(w http.ResponseWriter, resp *http.Response, body []byte) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header()[k] = append(w.Header()[k], v)
		}
	}
	w.Header().Del("Content-Length")
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

func (rt *Router) writeErr(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// shardFor resolves the owning shard of a user through the current map.
func (rt *Router) shardFor(user string) (*Map, *Shard, error) {
	m := rt.Map()
	if m == nil || len(m.Shards) == 0 {
		return nil, nil, fmt.Errorf("router has no placement map")
	}
	s := m.Shard(user)
	if s == nil || s.Primary == "" {
		return nil, nil, fmt.Errorf("no primary for the shard owning %q", user)
	}
	return m, s, nil
}

// readOrder is the fan-out order for a read: replicas round-robin first,
// the primary as the always-correct fallback.
func (rt *Router) readOrder(s *Shard) []string {
	nodes := append([]string(nil), s.Replicas...)
	if len(nodes) > 1 {
		k := int(rt.rr.Add(1)) % len(nodes)
		nodes = append(nodes[k:], nodes[:k]...)
	}
	return append(nodes, s.Primary)
}

// refreshMap re-fetches the placement map from any reachable node —
// the recovery path when the local map went stale (a failover the router
// has not been told about yet).
func (rt *Router) refreshMap(ctx context.Context) *Map {
	cur := rt.Map()
	if cur == nil {
		return nil
	}
	for _, node := range cur.Nodes() {
		resp, err := rt.do(ctx, http.MethodGet, node, "/api/cluster/map", http.Header{}, nil, -1, 0)
		if err != nil {
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		m, derr := Decode(body)
		if derr != nil || m.Epoch <= cur.Epoch {
			continue
		}
		rt.SetMap(m)
		return m
	}
	return nil
}

// handleProxy is the default route: the request belongs wholly to the
// submitting user's shard. Writes go to the primary; a conn error or a 409
// read_only_replica (the map is stale — a failover moved the primary)
// triggers one map refresh and retry.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	_, shard, err := rt.shardFor(r.Header.Get(userHeader))
	if err != nil {
		rt.writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBody))
	if err != nil {
		rt.writeErr(w, http.StatusBadRequest, err)
		return
	}
	uri := r.URL.RequestURI()
	resp, err := rt.do(r.Context(), r.Method, shard.Primary, uri, r.Header, body, shard.ID, 0)
	if err == nil {
		buf, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil && !(resp.StatusCode == http.StatusConflict && bytes.Contains(buf, []byte("read_only_replica"))) {
			rt.relayBytes(w, resp, buf)
			return
		}
	}
	// First attempt failed or hit a demoted/stale primary: refresh, retry.
	// Re-resolve from the current map even when no node had a newer epoch —
	// an admin PUT may have repointed this router between routing and the
	// first attempt.
	cur := rt.refreshMap(r.Context())
	if cur == nil {
		cur = rt.Map()
	}
	if cur != nil {
		if s := cur.Shard(r.Header.Get(userHeader)); s != nil && s.Primary != "" {
			shard = s
		}
	}
	resp, err = rt.do(r.Context(), r.Method, shard.Primary, uri, r.Header, body, shard.ID, 0)
	if err != nil {
		rt.writeErr(w, http.StatusBadGateway, fmt.Errorf("shard %d primary unreachable: %w", shard.ID, err))
		return
	}
	rt.relay(w, resp)
}

// ---- query submission: replica fan-out and scatter-gather ----

// shardSet maps a query to the shards its referenced datasets live on. A
// bare name belongs to the submitting user; "owner.name" to the owner. An
// unparseable query maps to the user's shard — the node produces the real
// error. References inside a saved view resolve on the view's owning shard.
func (rt *Router) shardSet(m *Map, user, sql string) (map[int]bool, []string) {
	shards := map[int]bool{}
	var refs []string
	if q, err := sqlparser.Parse(sql); err == nil {
		refs = sqlparser.ReferencedTables(q)
	}
	for _, ref := range refs {
		owner := user
		if i := strings.IndexByte(ref, '.'); i > 0 {
			owner = ref[:i]
		}
		if s := m.Shard(owner); s != nil {
			shards[s.ID] = true
		}
	}
	if len(shards) == 0 {
		if s := m.Shard(user); s != nil {
			shards[s.ID] = true
		}
	}
	return shards, refs
}

func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	user := r.Header.Get(userHeader)
	m, _, err := rt.shardFor(user)
	if err != nil {
		rt.writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxProxyBody))
	if err != nil {
		rt.writeErr(w, http.StatusBadRequest, err)
		return
	}
	var req struct {
		SQL string `json:"sql"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.SQL == "" {
		rt.writeErr(w, http.StatusBadRequest, fmt.Errorf("sql is required"))
		return
	}
	shards, refs := rt.shardSet(m, user, req.SQL)
	if len(shards) > 1 {
		rt.scatterGather(w, r, user, req.SQL, refs)
		return
	}
	var sid int
	for id := range shards {
		sid = id
	}
	shard := m.ShardByID(sid)
	if shard == nil {
		rt.writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("shard %d missing from map", sid))
		return
	}
	node, resp, buf, err := rt.readShard(r.Context(), http.MethodPost, shard, "/api/queries", r.Header, body)
	if err != nil {
		rt.writeErr(w, http.StatusBadGateway, fmt.Errorf("shard %d: no node could serve the query: %w", sid, err))
		return
	}
	if resp.StatusCode == http.StatusAccepted {
		var acc struct {
			ID string `json:"id"`
		}
		if json.Unmarshal(buf, &acc) == nil && acc.ID != "" {
			rt.jobs.Store(acc.ID, node)
		}
	}
	rt.relayBytes(w, resp, buf)
}

// readShard sends a read to one node of the shard: replicas round-robin
// first, pinned at the shard's write watermark so a client reads its own
// writes, then the primary. A lagging replica answers 409 replica_lagging
// and the next node is tried; the primary always satisfies its own
// watermark, so only an unreachable shard ends in an error. It returns the
// node that answered, its response and the buffered body.
func (rt *Router) readShard(ctx context.Context, method string, shard *Shard, uri string, hdr http.Header, body []byte) (string, *http.Response, []byte, error) {
	minLSN := rt.watermarkFor(shard.ID)
	lastErr := fmt.Errorf("no nodes for shard %d", shard.ID)
	for _, node := range rt.readOrder(shard) {
		resp, err := rt.do(ctx, method, node, uri, hdr, body, shard.ID, minLSN)
		if err != nil {
			lastErr = err
			continue
		}
		buf, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusConflict && bytes.Contains(buf, []byte("replica_lagging")) {
			lastErr = fmt.Errorf("replica %s lagging behind LSN %d", node, minLSN)
			continue
		}
		return node, resp, buf, nil
	}
	return "", nil, nil, lastErr
}

// handleData proxies the typed data endpoint, routed by the dataset's
// owner (not the requesting user) with the replica fan-out and LSN pin.
func (rt *Router) handleData(w http.ResponseWriter, r *http.Request) {
	owner := r.PathValue("owner")
	m := rt.Map()
	if m == nil {
		rt.writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("router has no placement map"))
		return
	}
	shard := m.Shard(owner)
	if shard == nil || shard.Primary == "" {
		rt.writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("no shard for owner %q", owner))
		return
	}
	_, resp, buf, err := rt.readShard(r.Context(), http.MethodGet, shard, r.URL.RequestURI(), r.Header, nil)
	if err != nil {
		rt.writeErr(w, http.StatusBadGateway, fmt.Errorf("shard %d: %w", shard.ID, err))
		return
	}
	rt.relayBytes(w, resp, buf)
}

// handleJob answers a status/plan/trace poll: the router's own table for a
// scatter-gather job, the owning node for any other.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if strings.HasPrefix(id, localJobPrefix) {
		rt.local.ServeStatus(w, r, id, r.Header.Get(userHeader))
		return
	}
	rt.forwardJob(w, r, id)
}

func (rt *Router) handleKill(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !strings.HasPrefix(id, localJobPrefix) {
		rt.forwardJob(w, r, id)
		return
	}
	if !rt.local.Kill(id) {
		rt.writeErr(w, http.StatusNotFound, fmt.Errorf("query %q is not running", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"id": id, "killed": true})
}

// forwardJob routes a job request to the node that owns the job: the
// routing cache first, then a sweep of every node (job ids are unique per
// node, so exactly one answers non-404) — the sweep is what keeps the
// router restartable without losing poll routing.
func (rt *Router) forwardJob(w http.ResponseWriter, r *http.Request, id string) {
	uri := r.URL.RequestURI()
	if node, ok := rt.jobs.Load(id); ok {
		if resp, err := rt.do(r.Context(), r.Method, node.(string), uri, r.Header, nil, -1, 0); err == nil {
			rt.relay(w, resp)
			return
		}
	}
	rt.sweep(w, r, uri)
}

// sweep tries every node in the map and relays the first non-404 answer.
func (rt *Router) sweep(w http.ResponseWriter, r *http.Request, uri string) {
	m := rt.Map()
	if m == nil {
		rt.writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("router has no placement map"))
		return
	}
	var last *http.Response
	var lastBody []byte
	for _, node := range m.Nodes() {
		resp, err := rt.do(r.Context(), r.Method, node, uri, r.Header, nil, -1, 0)
		if err != nil {
			continue
		}
		buf, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			continue
		}
		if resp.StatusCode != http.StatusNotFound {
			rt.relayBytes(w, resp, buf)
			return
		}
		last, lastBody = resp, buf
	}
	if last != nil {
		rt.relayBytes(w, last, lastBody)
		return
	}
	rt.writeErr(w, http.StatusBadGateway, fmt.Errorf("no node answered for %s", uri))
}

// ---- cluster map admin ----

func (rt *Router) handleMapGet(w http.ResponseWriter, r *http.Request) {
	m := rt.Map()
	if m == nil {
		rt.writeErr(w, http.StatusNotFound, fmt.Errorf("router has no placement map"))
		return
	}
	data, err := m.Encode()
	if err != nil {
		rt.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleMapPut installs a new placement map: it is pushed to every shard
// primary (each journals it in its own WAL; replicas learn it off the
// stream, late joiners from snapshots) and then adopted locally. Per-node
// failures are reported; the router adopts the map only when every primary
// took it, so routing never runs ahead of what the nodes have durably
// agreed to.
func (rt *Router) handleMapPut(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		rt.writeErr(w, http.StatusBadRequest, err)
		return
	}
	m, err := Decode(body)
	if err != nil {
		rt.writeErr(w, http.StatusBadRequest, err)
		return
	}
	canonical, err := m.Encode()
	if err != nil {
		rt.writeErr(w, http.StatusBadRequest, err)
		return
	}
	results := map[string]string{}
	failed := false
	for _, s := range m.Shards {
		if s.Primary == "" {
			continue
		}
		resp, err := rt.do(r.Context(), http.MethodPut, s.Primary, "/api/cluster/map", r.Header, canonical, s.ID, 0)
		if err != nil {
			results[s.Primary] = err.Error()
			failed = true
			continue
		}
		buf, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		// An epoch_conflict from a node already at (or past) this epoch is
		// convergence, not failure — installs are idempotent per epoch.
		if resp.StatusCode >= 300 && !(resp.StatusCode == http.StatusConflict && bytes.Contains(buf, []byte("epoch_conflict"))) {
			results[s.Primary] = fmt.Sprintf("%s: %s", resp.Status, strings.TrimSpace(string(buf)))
			failed = true
			continue
		}
		results[s.Primary] = "ok"
	}
	if failed {
		rt.writeErr(w, http.StatusConflict, fmt.Errorf("map install incomplete: %v", results))
		return
	}
	rt.SetMap(m)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"installed": true, "epoch": m.Epoch, "nodes": results})
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{"status": "ok", "role": "router"}
	if m := rt.Map(); m != nil {
		out["epoch"] = m.Epoch
		out["shards"] = len(m.Shards)
		out["nodes"] = m.Nodes()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// ---- scatter-gather: cross-shard queries run on the router ----

// scatterGather executes a query whose referenced datasets live on
// different shards: each dataset is fetched in typed form from its owning
// shard (access checks run there, as the requesting user; views evaluate
// on their owner's shard), and the query runs on a router-local engine
// over the fetched tables. The async job protocol is preserved — the
// router's own job table answers the polls.
func (rt *Router) scatterGather(w http.ResponseWriter, r *http.Request, user, sql string, refs []string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	ctx, kill := context.WithCancelCause(ctx)
	j := rt.local.Create(user, "", kill)
	m, hdr := rt.Map(), r.Header.Clone()
	go func() {
		defer cancel()
		res, err := rt.runScattered(ctx, m, hdr, user, sql, refs)
		if err != nil {
			if ctx.Err() != nil {
				// An error after cancellation is a consequence of it; report
				// the cause (a kill or the deadline), not the symptom.
				err = context.Cause(ctx)
			}
			j.Fail(err)
			return
		}
		j.Finish(res)
	}()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"id": j.ID, "status": jobs.Running, "mode": rt.local.Mode})
}

// runScattered fetches every referenced dataset from its owning shard and
// runs the query over them on a router-local engine.
func (rt *Router) runScattered(ctx context.Context, m *Map, hdr http.Header, user, sql string, refs []string) (*engine.Result, error) {
	tables := map[string]*storage.Table{}
	for _, ref := range refs {
		owner, name := user, ref
		if i := strings.IndexByte(ref, '.'); i > 0 {
			owner, name = ref[:i], ref[i+1:]
		}
		shard := m.Shard(owner)
		if shard == nil {
			return nil, fmt.Errorf("no shard for owner %q", owner)
		}
		tbl, err := rt.fetchTable(ctx, hdr, shard, owner, name)
		if err != nil {
			return nil, fmt.Errorf("fetch %s: %w", ref, err)
		}
		tables[ref] = tbl
	}
	return engine.Query(sql, engine.MapResolver{Tables: tables}, &engine.ExecContext{
		Now:     time.Now(),
		MaxRows: rt.maxRows,
		Ctx:     ctx,
	})
}

// fetchTable pulls one dataset's typed contents from its owning shard,
// replicas first with the shard's LSN pin, primary as fallback.
func (rt *Router) fetchTable(ctx context.Context, hdr http.Header, shard *Shard, owner, name string) (*storage.Table, error) {
	node, resp, buf, err := rt.readShard(ctx, http.MethodGet, shard, "/api/datasets/"+owner+"/"+name+"/data", hdr, nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s from %s: %s", resp.Status, node, strings.TrimSpace(string(buf)))
	}
	var td storage.TableData
	if err := json.Unmarshal(buf, &td); err != nil {
		return nil, err
	}
	return td.Table()
}
