package obs

import (
	"runtime"
	"time"
)

// Version identifies the running build in sqlshare_build_info and
// /api/health. Binaries stamp it from their -version flag default or via
// -ldflags "-X sqlshare/internal/obs.Version=...".
var Version = "dev"

// processStart anchors sqlshare_process_start_time_seconds and the health
// endpoint's uptime. Set once at init; tests read it through ProcessStart.
var processStart = time.Now()

// ProcessStart reports when this process initialized the obs package —
// effectively process start for any real binary.
func ProcessStart() time.Time { return processStart }

// PlatformMetrics is the named metric bundle every layer of the platform
// reports through: the query history's fold, the catalog, the REST server's
// request middleware and job table, and the ingest path. Creating the bundle
// is idempotent per registry, so the server and tests can share one.
//
// The per-query instruments — the query pipeline, parallel queries, history
// records, slow queries and the cache hit/miss counts — are observed in one
// place, the fold of a finished query's entry (history.History.Record);
// scripts/lint_sinks.sh keeps every other package from naming them.
type PlatformMetrics struct {
	Registry *Registry

	// Query pipeline.
	QueriesTotal   *Counter
	QueriesFailed  *Counter
	QueriesAborted *Counter // row- and memory-limit aborts (engine.ErrRowLimit, ErrMemLimit)
	RowsReturned   *Counter
	RowsScanned    *Counter // actual rows produced by scan/seek operators (every executed run)
	CompileSeconds *Histogram
	ExecSeconds    *Histogram

	// Intra-query parallelism (internal/engine worker pool). The server
	// registers sqlshare_parallel_workers_busy, read at scrape time.
	ParallelQueries *Counter // queries that actually ran an operator with >1 worker

	// Columnar execution (internal/engine vectorized scans).
	SegmentsScanned *Counter // segments read by vectorized scans
	SegmentsSkipped *Counter // segments pruned via zone maps without reading data

	// Catalog mutations, labeled by operation name.
	CatalogOps *CounterVec

	// Ingest and upload staging.
	IngestBytes *Counter

	// Query history / continuous insights.
	HistoryRecords *Counter
	SlowQueries    *CounterVec // label: plan digest

	// Version-fenced result cache: hits, misses and the hit latency per
	// query; evictions and bytes held reported by internal/qcache.
	CacheHits       *Counter
	CacheMisses     *Counter
	CacheEvictions  *Counter
	CacheBytes      *Gauge
	CacheHitSeconds *Histogram

	// HTTP layer.
	HTTPRequests *CounterVec // labels: route, status
	HTTPSeconds  *Histogram
	HTTPBytesOut *Counter

	// Durability (internal/wal): group-commit fsync latency, checkpoint
	// cost, and what recovery replayed at boot.
	WALFsyncSeconds   *Histogram
	WALRecords        *Counter
	WALBytes          *Counter
	CheckpointSeconds *Histogram
	RecoveryRecords   *Counter
	RecoveryTornBytes *Counter

	// Span tracing (internal/obs TraceStore).
	TracesTotal    *Counter
	TracesRetained *CounterVec // label: reason (slow, error, bypass, head, forced, all)

	// Build identity and process lifetime.
	BuildInfo        *GaugeVec  // labels: version, go — constant 1
	ProcessStartTime *GaugeFunc // unix seconds, Prometheus convention
}

// NewPlatformMetrics creates (or rebinds to) the platform metric bundle on r.
func NewPlatformMetrics(r *Registry) *PlatformMetrics {
	m := &PlatformMetrics{
		Registry: r,
		QueriesTotal: r.NewCounter("sqlshare_queries_total",
			"Queries submitted through the catalog query path."),
		QueriesFailed: r.NewCounter("sqlshare_queries_failed_total",
			"Queries that ended in an error (parse, access, compile or runtime)."),
		QueriesAborted: r.NewCounter("sqlshare_queries_aborted_total",
			"Queries aborted by the row-limit or memory-limit runaway guard."),
		RowsReturned: r.NewCounter("sqlshare_query_rows_returned_total",
			"Result rows returned by successful queries."),
		RowsScanned: r.NewCounter("sqlshare_query_rows_scanned_total",
			"Actual rows produced by scan and seek operators, summed over every execution."),
		CompileSeconds: r.NewHistogram("sqlshare_query_compile_seconds",
			"Parse + permission-check + plan-compile latency.", nil),
		ExecSeconds: r.NewHistogram("sqlshare_query_execute_seconds",
			"Plan execution latency.", nil),
		ParallelQueries: r.NewCounter("sqlshare_parallel_queries_total",
			"Queries that executed at least one operator with more than one worker."),
		SegmentsScanned: r.NewCounter("sqlshare_segments_scanned_total",
			"Columnar segments read by vectorized scan operators."),
		SegmentsSkipped: r.NewCounter("sqlshare_segments_skipped_total",
			"Columnar segments skipped by zone-map pruning before reading any data."),
		CatalogOps: r.NewCounterVec("sqlshare_catalog_ops_total",
			"Catalog mutations by operation.", "op"),
		IngestBytes: r.NewCounter("sqlshare_ingest_bytes_total",
			"Bytes accepted by the staging/ingest path."),
		HistoryRecords: r.NewCounter("sqlshare_history_records_total",
			"Statements recorded into the query history."),
		SlowQueries: r.NewCounterVec("sqlshare_slow_queries_total",
			"Statements at or above the slow-query threshold, by plan digest.", "digest"),
		CacheHits: r.NewCounter("sqlshare_cache_hits_total",
			"Queries answered from the version-fenced result cache."),
		CacheMisses: r.NewCounter("sqlshare_cache_misses_total",
			"Cacheable queries that probed the result cache and missed."),
		CacheEvictions: r.NewCounter("sqlshare_cache_evictions_total",
			"Result cache entries evicted by the probation window or the byte budget."),
		CacheBytes: r.NewGauge("sqlshare_cache_bytes",
			"Estimated bytes currently held by the result cache."),
		CacheHitSeconds: r.NewHistogram("sqlshare_cache_hit_seconds",
			"End-to-end latency of queries answered from the result cache.", nil),
		HTTPRequests: r.NewCounterVec("sqlshare_http_requests_total",
			"HTTP requests by route pattern and status code.", "route", "status"),
		HTTPSeconds: r.NewHistogram("sqlshare_http_request_seconds",
			"HTTP request latency.", nil),
		HTTPBytesOut: r.NewCounter("sqlshare_http_response_bytes_total",
			"HTTP response body bytes written."),
		WALFsyncSeconds: r.NewHistogram("sqlshare_wal_fsync_seconds",
			"Write-ahead-log fsync latency (one observation per group commit).", nil),
		WALRecords: r.NewCounter("sqlshare_wal_records_total",
			"Records appended durably to the write-ahead log."),
		WALBytes: r.NewCounter("sqlshare_wal_bytes_total",
			"Bytes appended durably to the write-ahead log."),
		CheckpointSeconds: r.NewHistogram("sqlshare_checkpoint_seconds",
			"Catalog snapshot (checkpoint) duration.", nil),
		RecoveryRecords: r.NewCounter("sqlshare_recovery_records_total",
			"WAL records replayed during crash recovery at startup."),
		RecoveryTornBytes: r.NewCounter("sqlshare_recovery_torn_bytes_total",
			"Bytes discarded from a torn final WAL record during recovery."),
		TracesTotal: r.NewCounter("sqlshare_traces_total",
			"Request traces finished (head-sampled into the summary ring)."),
		TracesRetained: r.NewCounterVec("sqlshare_traces_retained_total",
			"Traces whose full span tree was retained, by tail-sampling reason.", "reason"),
		BuildInfo: r.NewGaugeVec("sqlshare_build_info",
			"Build identity; the labeled sample is always 1.", "version", "go"),
		ProcessStartTime: r.NewGaugeFunc("sqlshare_process_start_time_seconds",
			"Unix time the process started, in seconds.", func() float64 {
				return float64(processStart.UnixNano()) / 1e9
			}),
	}
	m.BuildInfo.With(Version, runtime.Version()).Set(1)
	return m
}
