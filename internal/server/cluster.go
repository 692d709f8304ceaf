package server

// This file is the node-side cluster surface: the replication endpoints a
// primary serves (/api/repl/*), the role switch that turns a replica into a
// primary at failover (/api/admin/promote), the shard-map admin pair
// (/api/cluster/map — journaled through the WAL so live == recovered), and
// the typed data endpoint the router's scatter-gather reads from. The
// placement decision itself lives in internal/cluster; nodes only store and
// serve the map.

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"sqlshare/internal/catalog"
	"sqlshare/internal/cluster"
	"sqlshare/internal/repl"
	"sqlshare/internal/storage"
)

// minLSNHeader is the read-your-writes gate: a request carrying it blocks
// (bounded) until the node's durable LSN reaches the value, else 409
// replica_lagging. The router pins replica reads with the LSN watermark the
// write response carried in repl.LSNHeader.
const minLSNHeader = "X-SQLShare-Min-LSN"

// defaultMinLSNWait bounds how long a gated read waits for replication to
// catch up before 409 replica_lagging; see SetMinLSNWait.
const defaultMinLSNWait = 2 * time.Second

// catalogMutationRoutes are the route patterns that commit WAL records. They
// are rejected with 409 read_only_replica on replica nodes (writes belong on
// the shard primary; a 4xx, so the zero-5xx failover gate holds), and their
// responses carry the durable LSN in repl.LSNHeader so clients can pin
// subsequent replica reads.
var catalogMutationRoutes = map[string]bool{
	"POST /api/users":                               true,
	"POST /api/datasets":                            true,
	"DELETE /api/datasets/{owner}/{name}":           true,
	"PUT /api/datasets/{owner}/{name}/meta":         true,
	"PUT /api/datasets/{owner}/{name}/permissions":  true,
	"POST /api/datasets/{owner}/{name}/append":      true,
	"POST /api/datasets/{owner}/{name}/materialize": true,
	"POST /api/datasets/{owner}/{name}/doi":         true,
	"POST /api/macros":                              true,
	"PUT /api/cluster/map":                          true,
}

// EnableReplication attaches the WAL-shipping source side: the node starts
// answering /api/repl/wal, /api/repl/snapshot and /api/repl/ack. Requires
// SetDurability first. Replicas enable it too — a promoted replica must
// serve the stream the moment it becomes primary.
func (s *Server) EnableReplication() error {
	if s.durability == nil {
		return fmt.Errorf("server: replication requires a data directory (SetDurability first)")
	}
	src := repl.NewSource(s.durability, nil)
	src.SetMetrics(s.metrics)
	s.replSource = src
	return nil
}

// SetReplica marks this node a replica: catalog mutations answer 409
// read_only_replica until Promote. f is the follower pulling the primary's
// WAL (its applied LSN shows in /api/health and /api/repl/status); stop, if
// non-nil, cancels the follower's pull loop and is invoked at promotion.
func (s *Server) SetReplica(f *repl.Follower, stop func()) {
	s.follower = f
	s.stopFollower = stop
	if f != nil {
		f.SetMetrics(s.metrics)
	}
	s.replica.Store(true)
}

// Promote flips a replica to primary: the follower loop is stopped, writes
// are accepted, and the node's durable LSN — the point all acknowledged
// history is replayed against — is returned. Idempotent on a primary.
func (s *Server) Promote() uint64 {
	if s.replica.CompareAndSwap(true, false) && s.stopFollower != nil {
		s.stopFollower()
	}
	var lsn uint64
	if s.durability != nil {
		lsn, _ = s.durability.Durable()
	}
	return lsn
}

// Role reports this node's current role: "primary" or "replica".
func (s *Server) Role() string {
	if s.replica.Load() {
		return "replica"
	}
	return "primary"
}

// SetNodeName labels this node in health and replication status output
// (e.g. its base URL or a -node-id flag value).
func (s *Server) SetNodeName(name string) { s.nodeName = name }

// SetJobPrefix namespaces job identifiers ("n2-" makes "n2-q-17") so the
// router can tell which node a status poll belongs to without keeping
// per-job state. The prefix must be unique per node — the job table is
// node-local, and two nodes of one shard would otherwise mint colliding
// ids. Call before serving traffic.
func (s *Server) SetJobPrefix(p string) { s.jobs.Prefix = p + "q-" }

// SetMinLSNWait bounds how long a min-LSN-gated read waits for replication
// to catch up before answering 409 replica_lagging (default 2s). Call
// before serving traffic.
func (s *Server) SetMinLSNWait(d time.Duration) { s.minLSNWait = d }

// gateMinLSN enforces the min-LSN read gate. Returns false after writing
// the error response when the request cannot proceed: 400 for a malformed
// header, 409 replica_lagging when the node does not reach the requested
// LSN within minLSNWait — the router falls back to the primary on 409.
func (s *Server) gateMinLSN(w http.ResponseWriter, r *http.Request) bool {
	v := r.Header.Get(minLSNHeader)
	if v == "" {
		return true
	}
	min, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad %s header: %v", minLSNHeader, err))
		return false
	}
	if min == 0 {
		return true
	}
	if s.durability == nil {
		s.writeErrCode(w, http.StatusConflict, "replica_lagging",
			fmt.Errorf("node has no WAL and cannot prove LSN %d", min))
		return false
	}
	wait := s.minLSNWait
	if wait <= 0 {
		wait = defaultMinLSNWait
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		lsn, ch := s.durability.Durable()
		if lsn >= min {
			return true
		}
		select {
		case <-ch:
		case <-deadline.C:
			lsn, _ = s.durability.Durable()
			s.writeErrCode(w, http.StatusConflict, "replica_lagging",
				fmt.Errorf("node at LSN %d did not reach requested LSN %d within %s", lsn, min, wait))
			return false
		case <-r.Context().Done():
			s.writeErr(w, http.StatusBadRequest, r.Context().Err())
			return false
		}
	}
}

// ---- replication endpoints (primary side of WAL shipping) ----

func (s *Server) replSourceOr409(w http.ResponseWriter) *repl.Source {
	if s.replSource == nil {
		s.writeErrCode(w, http.StatusConflict, "replication_disabled",
			fmt.Errorf("server is running without replication"))
		return nil
	}
	return s.replSource
}

func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	if src := s.replSourceOr409(w); src != nil {
		src.ServeWAL(w, r)
	}
}

func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	if src := s.replSourceOr409(w); src != nil {
		src.ServeSnapshot(w, r)
	}
}

func (s *Server) handleReplAck(w http.ResponseWriter, r *http.Request) {
	if src := s.replSourceOr409(w); src != nil {
		src.HandleAck(w, r)
	}
}

// handleReplStatus reports this node's replication position: role, durable
// LSN, and — on a primary — every follower's acknowledged progress. The
// failover controller reads it to pick the most-caught-up replica.
func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{"role": s.Role(), "node": s.nodeName}
	if s.durability != nil {
		lsn, _ := s.durability.Durable()
		out["durableLSN"] = lsn
	}
	if f := s.follower; f != nil {
		out["appliedLSN"] = f.AppliedLSN()
	}
	if src := s.replSource; src != nil {
		out["followers"] = src.Followers()
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handlePromote flips a replica to primary (idempotent on a primary). The
// response carries the durable LSN the new primary serves from — the
// watermark acknowledged writes are replayed against after failover.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	lsn := s.Promote()
	s.writeJSON(w, http.StatusOK, map[string]any{"role": s.Role(), "lsn": lsn})
}

// ---- shard map (journaled placement) ----

// handleGetShardMap returns the installed placement map — the exact bytes
// journaled in the WAL, so what a router reads here is what recovery
// rebuilds.
func (s *Server) handleGetShardMap(w http.ResponseWriter, r *http.Request) {
	epoch, data := s.cat.ShardMap()
	if epoch == 0 {
		s.writeErr(w, http.StatusNotFound, fmt.Errorf("no shard map installed"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handlePutShardMap installs a placement map. The body is a cluster.Map;
// its epoch must advance past the installed epoch (a CAS, so two routers
// racing a rebalance cannot interleave maps), and the canonical encoding is
// what gets journaled — byte-identical across every node that applies it.
func (s *Server) handlePutShardMap(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	m, err := cluster.Decode(body)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	canonical, err := m.Encode()
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.cat.SetShardMap(r.Context(), m.Epoch, canonical); err != nil {
		// Epoch mismatches are races between admins, not malformed input.
		s.writeErrCode(w, http.StatusConflict, "epoch_conflict", err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"installed": true, "epoch": m.Epoch})
}

// ---- typed data endpoint (scatter-gather source) ----

// handleDatasetData returns a dataset's full contents in storage.TableData
// form — value-faithful, so the router can rebuild a storage.Table and run
// cross-shard plans locally. Honors the min-LSN gate and reports the
// serving node's durable LSN so the router can bound staleness.
func (s *Server) handleDatasetData(w http.ResponseWriter, r *http.Request) {
	user, err := s.user(r)
	if err != nil {
		s.writeErr(w, http.StatusUnauthorized, err)
		return
	}
	if !s.gateMinLSN(w, r) {
		return
	}
	full := r.PathValue("owner") + "." + r.PathValue("name")
	res, _, err := s.cat.QueryWithOptions(user, "SELECT * FROM "+full, catalog.QueryOptions{
		MaxRows:  s.maxRows,
		MaxBytes: s.maxBytes,
		Context:  r.Context(),
	})
	if err != nil {
		s.writeErr(w, statusFor(err), err)
		return
	}
	td := &storage.TableData{Name: full, Cols: make([]storage.ColumnData, len(res.Cols))}
	for i, c := range res.Cols {
		td.Cols[i] = storage.ColumnData{Name: c.Name, Type: uint8(c.Type)}
	}
	if len(res.Rows) > 0 {
		td.Rows = make([][]storage.ValueData, len(res.Rows))
		for i, row := range res.Rows {
			enc := make([]storage.ValueData, len(row))
			for j, v := range row {
				enc[j] = storage.EncodeValue(v)
			}
			td.Rows[i] = enc
		}
	}
	if s.durability != nil {
		lsn, _ := s.durability.Durable()
		w.Header().Set(repl.LSNHeader, strconv.FormatUint(lsn, 10))
	}
	s.writeJSON(w, http.StatusOK, td)
}
