// Command sqlshare-server runs the SQLShare REST service (paper §3.3–3.4):
// dataset upload with relaxed-schema ingest, view creation and sharing, and
// the asynchronous query protocol.
//
// Usage:
//
//	sqlshare-server [-addr :8080] [-demo] [-debug-addr :6060] [-max-rows N] [-max-query-bytes N] [-parallelism N] [-log-json]
//	                [-history-log FILE] [-history-max-bytes N] [-history-keep N]
//	                [-slow-query DUR] [-session-gap DUR] [-no-trace]
//	                [-trace-slow DUR] [-trace-dump FILE]
//	                [-data-dir DIR] [-wal-sync group|each|none]
//	                [-checkpoint-every DUR] [-checkpoint-records N]
//	                [-cache-bytes N] [-cache-ttl DUR]
//	                [-drain-timeout DUR]
//	                [-node-name NAME] [-replicate-from URL]
//
// Cluster mode: with -data-dir the node also serves its WAL as a
// replication stream (GET /api/repl/wal). -replicate-from makes this node
// a read-only replica of another node — it streams that primary's WAL and
// applies it through its own journal, rejecting catalog writes with 409
// until POST /api/admin/promote flips it to primary. -node-name keeps job
// ids and replication acks distinguishable across the fleet; put
// sqlshare-router in front to route by owning user.
//
// Durability: with -data-dir, every catalog mutation is appended to a
// write-ahead log and fsynced (group commit) before it takes effect; on
// start the server restores the latest valid snapshot and replays the log
// tail, so a kill -9 loses nothing that was acknowledged. Checkpoints run
// in the background (-checkpoint-every / -checkpoint-records) and can be
// forced via POST /api/admin/checkpoint. Without -data-dir the server is
// in-memory only, as before.
//
// Shutdown: SIGINT/SIGTERM drains in-flight requests (up to
// -drain-timeout), then flushes and fsyncs the WAL and closes the history
// log before exiting.
//
// Observability: every request is logged through log/slog; Prometheus
// metrics are served at /metrics and an expvar JSON view at /debug/vars on
// the main listener. With -debug-addr, a second listener additionally
// exposes net/http/pprof under /debug/pprof/ (kept off the public address
// on purpose). With -max-rows, queries whose intermediate results exceed
// the limit abort with HTTP 422; -max-query-bytes is the memory twin — a
// soft per-query budget over the engine's accounted working state
// (hash-join builds, sort buffers, aggregation state, materialized
// results) that aborts over-budget queries the same way.
//
// Live operations: GET /api/queries/running lists every in-flight query
// with live progress and memory counters, DELETE /api/queries/{id}/kill
// cancels one, and GET /api/health is the deep health report (build,
// uptime, pool occupancy, in-flight memory, worst per-template p99). The
// sqlshare_overload_* gauges expose the same overload signals at /metrics.
//
// Workload insights: every finished query is one log entry, folded by one
// call into the in-memory query log (a ring of the most recent 1,024
// entries), the live analyzer and the per-user usage meter, which back GET
// /api/insights/{summary,operators,tables,users,usage,slow,sessions,recent}.
// With -history-log, each entry is additionally appended to a JSONL file
// (rotated past -history-max-bytes, keeping -history-keep generations): the
// server's full corpus, which `workload-report -insights` replays offline
// into the same aggregates. With -slow-query, statements at or above the threshold are
// logged with their plan digest and counted in sqlshare_slow_queries_total.
// -no-trace disables per-operator query tracing (trace endpoints then
// answer 404).
//
// Span tracing: every request runs inside a span tree (HTTP → auth → parse
// → plan → cache → execution operators → WAL append) with W3C traceparent
// propagation. Summaries of the newest 512 requests are kept in a ring; full
// span trees are tail-sampled — the newest 128 that were slow (≥
// -trace-slow), failed or cache-bypassing. -trace-slow 0 retains every span
// tree (the dev default). A query's phases and operators are measured once,
// on its log entry, and rendered as spans only when its trace is retained.
// Browse them at GET /api/traces and GET /api/traces/{id}. On
// shutdown the retained trees are flushed as JSONL to -trace-dump (defaults
// to DIR/traces.jsonl under -data-dir), so post-mortem traces survive a
// restart. -no-trace disables span tracing too.
//
// Result caching: -cache-bytes attaches a version-fenced result cache
// (default 64 MiB; 0 disables). Cached results are keyed by the
// version vector of the query's transitive dataset dependency chain, so any
// upstream mutation makes stale entries unreachable — no invalidation, no
// staleness window. -cache-ttl adds age-based expiry on top. Per request,
// "no_cache": true forces execution; GET /api/admin/cache reports stats and
// DELETE /api/admin/cache empties the cache.
//
// With -demo, a demonstration user "demo" and a small environmental-sensing
// dataset are preloaded so the CLI can be tried immediately:
//
//	sqlshare -user demo query "SELECT * FROM water_quality"
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"sqlshare"
	"sqlshare/internal/history"
	"sqlshare/internal/obs"
	"sqlshare/internal/repl"
	"sqlshare/internal/server"
	"sqlshare/internal/wal"
)

const demoCSV = `ts,station,depth,nitrate
2014-03-01 00:00:00,alpha,2.0,1.71
2014-03-01 01:00:00,alpha,2.0,-999
2014-03-01 02:00:00,beta,5.0,2.44
2014-03-01 03:00:00,beta,5.0,2.18
2014-03-01 04:00:00,gamma,10.0,3.02
`

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	demo := flag.Bool("demo", false, "preload a demo user and dataset")
	debugAddr := flag.String("debug-addr", "", "optional second listen address serving /debug/pprof/, /metrics and /debug/vars")
	maxRows := flag.Int("max-rows", 0, "abort queries whose intermediate results exceed this many rows (0 = unlimited)")
	maxQueryBytes := flag.Int64("max-query-bytes", 0, "abort queries whose accounted in-flight memory exceeds this many bytes (0 = unlimited)")
	parallelism := flag.Int("parallelism", 0, "default per-query worker cap for intra-query parallelism (0 = all cores, 1 = serial)")
	logJSON := flag.Bool("log-json", false, "emit request logs as JSON instead of text")
	historyLog := flag.String("history-log", "", "append every executed statement to this JSONL file")
	historyMaxBytes := flag.Int64("history-max-bytes", history.DefaultLogMaxBytes, "rotate the history log past this size")
	historyKeep := flag.Int("history-keep", history.DefaultLogKeep, "rotated history log generations to retain")
	slowQuery := flag.Duration("slow-query", 0, "log statements at or above this runtime as slow queries (0 = off)")
	sessionGap := flag.Duration("session-gap", history.DefaultSessionGap, "idle gap separating user sessions in insights")
	noTrace := flag.Bool("no-trace", false, "disable per-operator query tracing and span tracing")
	traceSlow := flag.Duration("trace-slow", obs.DefaultTraceSlow, "tail-sample full span trees for requests at or above this duration (0 = retain all)")
	traceDump := flag.String("trace-dump", "", "flush retained span trees to this JSONL file on shutdown (default DIR/traces.jsonl under -data-dir)")
	dataDir := flag.String("data-dir", "", "durable data directory (WAL + snapshots); empty = in-memory only")
	walSync := flag.String("wal-sync", "group", "WAL durability mode: group (batched fsync), each (fsync per record), none")
	checkpointEvery := flag.Duration("checkpoint-every", 5*time.Minute, "background checkpoint period (0 = timer off)")
	checkpointRecords := flag.Int("checkpoint-records", 10000, "checkpoint after this many journaled records (0 = threshold off)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "result cache budget in bytes (0 = caching off)")
	cacheTTL := flag.Duration("cache-ttl", 0, "additional age-based cache expiry (0 = versions-only fencing)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests")
	nodeName := flag.String("node-name", "", "cluster node name: stamps /api/health and replication acks, and prefixes job ids so they stay unique across the cluster")
	replicateFrom := flag.String("replicate-from", "", "start as a replica streaming the WAL from this primary base URL (requires -data-dir; promote later via POST /api/admin/promote)")
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	var platform *sqlshare.Platform
	var durability *sqlshare.Durability
	if *dataDir != "" {
		mode, ok := map[string]wal.SyncMode{
			"group": wal.SyncGroup, "each": wal.SyncEach, "none": wal.SyncNone,
		}[*walSync]
		if !ok {
			log.Fatalf("unknown -wal-sync mode %q (group, each or none)", *walSync)
		}
		var err error
		platform, durability, err = sqlshare.OpenDurable(*dataDir, &sqlshare.DurableOptions{
			SyncMode:          mode,
			CheckpointEvery:   *checkpointEvery,
			CheckpointRecords: *checkpointRecords,
			Logger:            logger,
		})
		if err != nil {
			log.Fatalf("open data directory %s: %v", *dataDir, err)
		}
		rec := durability.RecoveryStats()
		logger.Info("durable catalog opened", "dir", *dataDir, "sync", *walSync,
			"snapshot", rec.SnapshotPath, "replayed", rec.RecordsReplayed,
			"tornBytes", rec.TornBytes, "lastLSN", rec.LastLSN)
	} else {
		platform = sqlshare.New()
	}
	// The demo fixtures are only loaded into an empty catalog so a durable
	// restart does not trip over its own previous boot.
	if *demo && len(platform.Catalog().Users()) == 0 {
		if _, err := platform.CreateUser("demo", "demo@example.org"); err != nil {
			log.Fatal(err)
		}
		if _, rep, err := platform.UploadString("demo", "water_quality", demoCSV); err != nil {
			log.Fatal(err)
		} else {
			logger.Info("demo dataset loaded", "rows", rep.Rows, "delimiter", string(rep.Delimiter))
		}
		if _, err := platform.SaveView("demo", "nitrate_clean",
			"SELECT ts, station, CASE WHEN nitrate = -999 THEN NULL ELSE nitrate END AS nitrate FROM water_quality",
			sqlshare.Meta{Description: "sentinel values replaced with NULL"}); err != nil {
			log.Fatal(err)
		}
		if err := platform.SetPublic("demo", "nitrate_clean", true); err != nil {
			log.Fatal(err)
		}
	}

	srv := server.New(platform.Catalog())
	srv.SetLogger(logger)
	srv.SetMaxRows(*maxRows)
	srv.SetMaxQueryBytes(*maxQueryBytes)
	srv.SetTracing(!*noTrace)
	srv.SetParallelism(*parallelism)
	if *traceDump == "" && *dataDir != "" {
		*traceDump = filepath.Join(*dataDir, "traces.jsonl")
	}
	if !*noTrace {
		srv.ConfigureTraces(obs.TraceConfig{Slow: *traceSlow})
		logger.Info("span tracing enabled", "slow", *traceSlow, "dump", *traceDump)
	}
	if durability != nil {
		srv.SetDurability(durability)
		// Any durable node can serve the replication stream; whether
		// anyone follows it is the shard map's business, not ours.
		if err := srv.EnableReplication(); err != nil {
			log.Fatal(err)
		}
	}
	if *nodeName != "" {
		srv.SetNodeName(*nodeName)
		srv.SetJobPrefix(*nodeName + "-")
	}
	if *replicateFrom != "" {
		if durability == nil {
			log.Fatal("-replicate-from requires -data-dir (a replica applies the stream through its own WAL)")
		}
		follower := &repl.Follower{
			Dur:    durability,
			Base:   *replicateFrom,
			Node:   *nodeName,
			Logger: logger,
		}
		replCtx, replCancel := context.WithCancel(context.Background())
		defer replCancel()
		srv.SetReplica(follower, replCancel)
		go follower.Run(replCtx)
		logger.Info("replicating", "from", *replicateFrom, "node", *nodeName)
	}
	if *cacheBytes > 0 {
		srv.ConfigureCache(*cacheBytes, *cacheTTL)
		logger.Info("result cache enabled", "bytes", *cacheBytes, "ttl", *cacheTTL)
	}
	if err := srv.ConfigureHistory(history.Config{
		LogPath:       *historyLog,
		LogMaxBytes:   *historyMaxBytes,
		LogKeep:       *historyKeep,
		SlowThreshold: *slowQuery,
		SessionGap:    *sessionGap,
	}); err != nil {
		log.Fatal(err)
	}
	if *historyLog != "" {
		logger.Info("history log enabled", "path", *historyLog, "maxBytes", *historyMaxBytes, "keep", *historyKeep)
	}
	if *slowQuery > 0 {
		logger.Info("slow-query log enabled", "threshold", *slowQuery)
	}

	if *debugAddr != "" {
		dm := http.NewServeMux()
		dm.HandleFunc("/debug/pprof/", pprof.Index)
		dm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dm.Handle("/metrics", srv.Registry().Handler())
		dm.Handle("/debug/vars", srv.Registry().ExpvarHandler())
		go func() {
			logger.Info("debug listener", "addr", *debugAddr)
			log.Fatal(http.ListenAndServe(*debugAddr, dm))
		}()
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests (bounded by
	// -drain-timeout) and flush durable state before exiting: WAL first
	// (acknowledged mutations), then the history log.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("sqlshare-server listening", "addr", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting for drain
	logger.Info("shutting down", "drainTimeout", *drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := httpSrv.Shutdown(shutdownCtx)
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		logger.Error("drain failed", "error", drainErr)
	}
	// The shutdown itself is the last trace of the process: a forced
	// "server.shutdown" span records whether the drain completed, and the
	// whole retained ring is flushed to JSONL so the traces outlive the
	// process they describe.
	if ts := srv.Traces(); ts != nil {
		tctx, root := ts.StartTrace(context.Background(), "server.shutdown", obs.SpanContext{})
		obs.ForceRetain(tctx)
		root.SetAttr("drainTimeout", drainTimeout.String())
		root.EndErr(drainErr)
		obs.FinishTrace(tctx)
		if *traceDump != "" {
			if n, err := srv.DumpTraces(*traceDump); err != nil {
				logger.Error("trace dump failed", "path", *traceDump, "error", err)
			} else {
				logger.Info("traces flushed", "path", *traceDump, "traces", n)
			}
		}
	}
	if durability != nil {
		if err := durability.Close(); err != nil {
			logger.Error("wal close failed", "error", err)
		} else {
			logger.Info("wal flushed and closed", "lastLSN", durability.LastLSN())
		}
	}
	if err := srv.Close(); err != nil {
		logger.Error("history close failed", "error", err)
	}
	logger.Info("shutdown complete")
}
