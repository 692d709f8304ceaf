package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"time"

	"sqlshare/internal/catalog"
	"sqlshare/internal/server"
)

// Shape of the traced run.
const (
	// tracedRounds rounds run as the workload prescribes with client spans
	// and the /metrics sampler on; one more runs plain, so that what the
	// tracing itself costs shows as the ratio of the two.
	tracedRounds = 2
	plainRound   = 1
	// budgetOps caps the ops replayed one at a time for the latency budget.
	budgetOps = 500
	// hitProbeOps queries are sent a second time when a workload produced
	// too few result-cache hits of its own to time one.
	hitProbeOps = 24
	// defaultCacheBytes is the server's -cache-bytes default; the in-process
	// servers get the same cache the child process has.
	defaultCacheBytes = 64 << 20
	// sloMs is the latency limit loadgen.slo_miss_share counts against.
	sloMs = 250
)

// sampler polls the server's /metrics on a connection of its own while
// rounds run, keeping the largest job-queue depth it saw: a gauge's peak
// cannot be read off the counters at the end of a round.
type sampler struct {
	stop     chan struct{}
	done     chan struct{}
	maxDepth float64
}

func startSampler(base string) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	c := newRESTClient(base)
	go func() {
		defer close(s.done)
		defer c.close()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			m, err := c.scrape(ctx)
			cancel()
			if err == nil && m["sqlshare_job_queue_depth"] > s.maxDepth {
				s.maxDepth = m["sqlshare_job_queue_depth"]
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak it saw.
func (s *sampler) finish() float64 {
	close(s.stop)
	<-s.done
	return s.maxDepth
}

// flatten concatenates the per-client op lists of a round, cut to max ops.
// Each client's ops stay in order, which is all a write stream needs.
func flatten(clients [][]op, max int) []op {
	var out []op
	for _, c := range clients {
		out = append(out, c...)
	}
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// replaySerial sends ops one at a time and returns the successful ones'
// samples by op ID. An op that fails fails the traced run: the budget would
// otherwise be built on different ops in each replay.
func replaySerial(ctx context.Context, c *restClient, ops []op) (map[int]*sample, error) {
	out := make(map[int]*sample, len(ops))
	for i := range ops {
		s := c.execute(ctx, &ops[i], time.Now())
		if s.err != nil {
			return nil, fmt.Errorf("%s replay, %s %s: %w", c.path, ops[i].Kind, ops[i].Shape, s.err)
		}
		out[ops[i].ID] = &s
	}
	return out, nil
}

// inProcessServer is a server.New over a fresh catalog, configured like
// the child process's defaults and loaded with the workload's set-up.
type inProcessServer struct {
	srv *server.Server
	cat *catalog.Catalog
}

func newInProcessServer(s *setupPlan) (*inProcessServer, error) {
	cat := catalog.New()
	srv := server.New(cat)
	// The child process formats a log line per request; so does this one,
	// into nothing, so that the handler does the same work in both.
	srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil)))
	srv.ConfigureCache(defaultCacheBytes, 0)
	if err := loadCatalog(cat, s); err != nil {
		return nil, err
	}
	return &inProcessServer{srv: srv, cat: cat}, nil
}

// catalogSample is the timing of one op sent straight into the catalog.
type catalogSample struct {
	total, compile, execute time.Duration
}

// replayCatalog runs ops directly against the catalog, queries with the
// options the server's job runner passes, and records a catalog.query span
// with compile and execute children from the log entry's own split.
func replayCatalog(cat *catalog.Catalog, ops []op, tr *tracer) (map[int]catalogSample, error) {
	out := make(map[int]catalogSample, len(ops))
	for i := range ops {
		o := &ops[i]
		start := time.Now()
		if o.isWrite() {
			if err := applyWrite(cat, o); err != nil {
				return nil, fmt.Errorf("catalog replay, %s %s: %w", o.Kind, o.Name, err)
			}
			end := time.Now()
			tr.add("catalog", o.ID, "catalog."+string(o.Kind), "", start, end)
			out[o.ID] = catalogSample{total: end.Sub(start)}
			continue
		}
		_, entry, err := cat.QueryWithOptions(o.User, o.SQL, catalog.QueryOptions{
			Trace: true, OpsID: fmt.Sprintf("b-%d", o.ID),
		})
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("catalog replay, %q: %w", o.SQL, err)
		}
		tr.add("catalog", o.ID, "catalog.query", "", start, end)
		// The entry reports durations, not instants; compile comes first.
		tr.add("catalog", o.ID, "compile", "catalog.query", start, start.Add(entry.Compile))
		tr.add("catalog", o.ID, "execute", "catalog.query", start.Add(entry.Compile), start.Add(entry.Compile+entry.Execute))
		out[o.ID] = catalogSample{total: end.Sub(start), compile: entry.Compile, execute: entry.Execute}
	}
	return out, nil
}

// budgetRow is one line of the latency budget: the median over the
// replayed queries of the time that belongs to one layer and to nothing
// below it.
type budgetRow struct {
	Layer string  `json:"layer"`
	MS    float64 `json:"ms"`
}

// latencyBudget is the rows and the client-observed median they should add
// up to.
type latencyBudget struct {
	Rows       []budgetRow `json:"rows"`
	ObservedMS float64     `json:"observedMs"`
}

func printBudget(workload string, b *latencyBudget) {
	fmt.Printf("latency budget, %s: median self time per query over the serial replay\n", workload)
	var total float64
	for _, row := range b.Rows {
		fmt.Printf("  %-22s %10.4f ms\n", row.Layer, row.MS)
		total += row.MS
	}
	fmt.Printf("  %-22s %10.4f ms\n  %-22s %10.4f ms (%.0f %% of the sum)\n",
		"sum", total, "client-observed median", b.ObservedMS, 100*ratio(b.ObservedMS, total))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runTraced produces a workload's per-layer metrics. It runs the workload
// over REST as prescribed with client spans on, replays one unused round
// serially three ways — over loopback REST, in-process through ServeHTTP,
// in-process straight into the catalog — to split a query's latency by
// layer, and then times each layer's public functions on the workload's
// own inputs.
func runTraced(ctx context.Context, bin string, w *workload, seed int64, sz sizes, tr *tracer) (*runReport, error) {
	rep := &runReport{Workload: w.Name, Seed: seed, Traced: true}
	tr.workload = w.Name
	m := &metricSet{workload: w.Name}
	limit := roundLimit(sz)

	in, err := bringUp(ctx, bin, w)
	if err != nil {
		return nil, err
	}
	defer func() { in.close(false) }()
	in.client.tr, in.client.path = tr, "rest"

	// Part 1: the workload as prescribed.
	setupWrites, err := setupUploadLatencies(ctx, bin, w)
	if err != nil {
		return nil, fmt.Errorf("timing the set-up's uploads: %w", err)
	}
	ph, err := warmUp(ctx, in, w, limit)
	if err != nil {
		return nil, err
	}
	// Traced, plain, traced: the plain round sits between the traced ones so
	// that a server that slows as it fills up does not pass for tracing cost.
	// The last round generated is kept unsent for the budget replay.
	var plain *roundStats
	var queueDepthMax float64
	for r := 0; r < len(w.Rounds)-1 && r <= tracedRounds; r++ {
		isPlain := r == plainRound && len(w.Rounds) > 2 // -quick has no round to spare
		var smp *sampler
		in.client.tr = nil
		if !isPlain {
			smp = startSampler(in.proc.base)
			in.client.tr = tr
		}
		rs, err := measureRound(ctx, in, w, r, limit)
		if smp != nil {
			if d := smp.finish(); d > queueDepthMax {
				queueDepthMax = d
			}
		}
		if err != nil {
			return nil, err
		}
		ph.executed = append(ph.executed, r)
		ph.all = append(ph.all, rs)
		ph.attempted += rs.attempted
		ph.failed += rs.attempted - rs.ok()
		if isPlain {
			plain = rs
		} else {
			ph.rounds = append(ph.rounds, rs)
		}
	}
	in.client.tr = tr
	if ph.rssEnd, ph.rssPeak, err = readProcMem(in.proc.pid()); err != nil {
		return nil, err
	}
	if plain == nil {
		plain = ph.rounds[0]
	}
	hitMs, err := cacheHitLatencies(ctx, in.client, w, ph)
	if err != nil {
		return nil, err
	}
	restMetrics(m, w, ph, plain, queueDepthMax, hitMs, setupWrites)

	// Part 2: one unused round, one op at a time, over REST.
	budget := flatten(w.Rounds[len(w.Rounds)-1], budgetOps)
	in.client.path = "rest_serial"
	rest, err := replaySerial(ctx, in.client, budget)
	if err != nil {
		return nil, err
	}

	// The durable workload's crash check; recovery_s for every workload.
	var diskBytes int64
	if w.Durable {
		if diskBytes, err = dirBytes(in.dataDir); err != nil {
			return nil, err
		}
	}
	walTotals, err := in.client.scrape(ctx)
	if err != nil {
		return nil, err
	}
	// The serial replay was sent too, so the checks must know about it.
	streams, results := executedStreams(w, ph)
	streams = append(streams, budget)
	for i := range budget {
		results[&budget[i]] = rest[budget[i].ID]
	}
	recovery, err := verifyTraced(ctx, bin, in, w, ph, streams, results, rep)
	if err != nil {
		return nil, err
	}
	durableMetrics(m, w, streams, results, walTotals, diskBytes, recovery)

	// Part 3: the same round in-process, through the handler and straight
	// into the catalog, each on a server of its own so neither finds the
	// other's results in its cache.
	viaHandler, err := newInProcessServer(&w.Setup)
	if err != nil {
		return nil, err
	}
	hc := newInProcessClient(viaHandler.srv)
	hc.tr, hc.path = tr, "serve_http"
	served, err := replaySerial(ctx, hc, budget)
	if err != nil {
		return nil, err
	}
	direct, err := newInProcessServer(&w.Setup)
	if err != nil {
		return nil, err
	}
	cat, err := replayCatalog(direct.cat, budget, tr)
	if err != nil {
		return nil, err
	}
	rep.Budget = budgetMetrics(m, w, budget, rest, served, cat, tr.selfTimes("catalog", "catalog.query"))

	// Part 4: each layer on its own.
	if err := layerProbes(m, w, seed, budget, direct); err != nil {
		return nil, err
	}

	m.once("host.nproc", "count", float64(runtime.NumCPU()), 1)
	m.once("host.gomaxprocs", "count", float64(runtime.GOMAXPROCS(0)), 1)
	rep.Metrics = m.list
	generatorWarnings(rep)
	return rep, nil
}

// verifyTraced is verify for the traced run, which also restarts servers
// that have nothing to recover, so that recovery_s exists on every
// workload: for an in-memory server it is the time to start.
func verifyTraced(ctx context.Context, bin string, in *instance, w *workload, ph *phase, streams [][]op, results map[*op]*sample, rep *runReport) (time.Duration, error) {
	recovery, err := verify(ctx, bin, in, w, ph, streams, results, rep)
	if err != nil || w.Durable {
		return recovery, err
	}
	return in.crashAndRecover(ctx, bin, w.Name)
}

// setupUploadLatencies times the set-up's uploads one at a time on a
// second, throw-away server, so that a read-only workload still has a
// measured upload latency. It returns nil for a workload with writes of
// its own.
func setupUploadLatencies(ctx context.Context, bin string, w *workload) ([]float64, error) {
	for _, clients := range w.Rounds {
		for _, ops := range clients {
			for i := range ops {
				if ops[i].isWrite() {
					return nil, nil
				}
			}
		}
	}
	proc, err := startServer(ctx, bin, serverLogPath(w.Name))
	if err != nil {
		return nil, err
	}
	defer proc.kill()
	c := newRESTClient(proc.base)
	defer c.close()
	for _, u := range w.Setup.Users {
		if err := c.createUser(ctx, u); err != nil {
			return nil, err
		}
	}
	var out []float64
	for i := range w.Setup.Datasets {
		d := &w.Setup.Datasets[i]
		start := time.Now()
		if err := c.upload(ctx, d.User, d.Name, d.CSV); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(start)))
	}
	return out, nil
}

// cacheHitLatencies returns client-observed latencies of result-cache hits:
// the workload's own if it produced enough, otherwise those of queries it
// already ran, sent once more.
func cacheHitLatencies(ctx context.Context, c *restClient, w *workload, ph *phase) ([]float64, error) {
	var hits []float64
	var again []*op
	// Newest first: the cache may have evicted what the first rounds stored.
	for r := len(ph.all) - 1; r >= 0; r-- {
		rs := ph.all[r]
		for i := len(rs.samples) - 1; i >= 0; i-- {
			s := &rs.samples[i]
			if s.err != nil || s.op.Kind != opQuery {
				continue
			}
			if s.cache == "hit" {
				hits = append(hits, s.ms())
			} else if len(again) < hitProbeOps && !w.LongShapes[s.op.Shape] {
				again = append(again, s.op)
			}
		}
	}
	if len(hits) >= hitProbeOps {
		return hits, nil
	}
	hits = hits[:0]
	saved := c.tr
	c.tr = nil // a repeat is not an op of the workload
	defer func() { c.tr = saved }()
	for _, o := range again {
		s := c.execute(ctx, o, time.Now())
		if s.err != nil {
			return nil, fmt.Errorf("cache-hit probe: %w", s.err)
		}
		if s.cache == "hit" {
			hits = append(hits, s.ms())
		}
	}
	return hits, nil
}

// restMetrics adds what the client observed and what the server counted
// while the workload ran as prescribed.
func restMetrics(m *metricSet, w *workload, ph *phase, plain *roundStats, queueDepthMax float64, hitMs, setupWrites []float64) {
	all := &roundStats{prom: promSample{}}
	for _, rs := range ph.all {
		all.samples = append(all.samples, rs.samples...)
		all.serverCPU += rs.serverCPU
		all.clientCPU += rs.clientCPU
		for k, v := range rs.prom {
			all.prom[k] += v
		}
		if rs.backlogMax > all.backlogMax {
			all.backlogMax = rs.backlogMax
		}
	}
	queries := all.latencies(isQuery)
	okOps := float64(all.ok())

	// The end-to-end metrics that are not gated.
	tails := &metricSet{workload: m.workload}
	tails.latencyMetric(ph, "query_p95_ms", 0.95, isQuery) // median of the traced rounds, as the gated metrics are
	m.list = append(m.list, tails.list...)
	short := all.latencies(func(s *sample) bool { return isQuery(s) && !w.LongShapes[s.op.Shape] })
	m.once("short_query_p95_ms", "ms", percentile(short, 0.95), len(short))
	writes := all.latencies(isWrite)
	if len(writes) == 0 {
		writes = setupWrites
	}
	m.once("write_p50_ms", "ms", percentile(writes, 0.50), len(writes))
	m.once("write_p95_ms", "ms", percentile(writes, 0.95), len(writes))
	m.once("failed_share", "ratio", ratio(float64(ph.failed), float64(ph.attempted)), ph.attempted)

	// server
	var submit, poll, miss []float64
	for i := range all.samples {
		s := &all.samples[i]
		if s.err != nil || s.op.Kind != opQuery {
			continue
		}
		submit = append(submit, ms(s.timing.submit))
		poll = append(poll, ms(s.timing.poll))
		if s.cache == "miss" {
			miss = append(miss, s.ms())
		}
	}
	m.once("server.submit_p50_ms", "ms", percentile(submit, 0.5), len(submit))
	m.once("server.poll_p50_ms", "ms", percentile(poll, 0.5), len(poll))
	// The plain round had no sampler scraping /metrics, so its response
	// bytes are the workload's alone.
	m.once("server.response_bytes_per_op", "B", ratio(plain.prom["sqlshare_http_response_bytes_total"], float64(plain.ok())), plain.ok())
	m.once("server.job_queue_depth_max", "count", queueDepthMax, 1)
	m.once("server.http_5xx", "count", all.prom.sumWhere("sqlshare_http_requests_total", `status="5`), 1)
	m.once("server.rss_growth_mb_per_kop", "MiB", ratio(ph.rssEnd-ph.rssSetup, okOps/1000), int(okOps))

	// engine and storage, from the server's own counters
	p := all.prom
	m.once("engine.exec_ns_per_row_scanned", "ns", ratio(p["sqlshare_query_execute_seconds_sum"]*1e9, p["sqlshare_query_rows_scanned_total"]), int(p["sqlshare_query_rows_scanned_total"]))
	m.once("engine.rows_scanned_per_row_returned", "ratio", ratio(p["sqlshare_query_rows_scanned_total"], p["sqlshare_query_rows_returned_total"]), int(p["sqlshare_query_rows_returned_total"]))
	m.once("engine.parallel_query_share", "ratio", ratio(p["sqlshare_parallel_queries_total"], p["sqlshare_queries_total"]), int(p["sqlshare_queries_total"]))
	segments := p["sqlshare_segments_scanned_total"] + p["sqlshare_segments_skipped_total"]
	m.once("storage.segments_skipped_share", "ratio", ratio(p["sqlshare_segments_skipped_total"], segments), int(segments))
	m.once("storage.rss_bytes_per_user_byte", "ratio", ratio(ph.rssSetup*(1<<20), float64(w.Setup.csvBytes())), 1)

	// qcache
	probes := p["sqlshare_cache_hits_total"] + p["sqlshare_cache_misses_total"]
	m.once("qcache.hit_share", "ratio", ratio(p["sqlshare_cache_hits_total"], probes), int(probes))
	m.once("qcache.evictions", "count", p["sqlshare_cache_evictions_total"], 1)
	m.once("qcache.bytes_end", "B", ph.all[len(ph.all)-1].promEnd["sqlshare_cache_bytes"], 1)
	m.once("qcache.hit_p50_ms", "ms", percentile(hitMs, 0.5), len(hitMs))
	m.once("qcache.miss_p50_ms", "ms", percentile(miss, 0.5), len(miss))

	// loadgen: the generator checking itself
	var lag []float64
	slow := 0
	for i := range all.samples {
		lag = append(lag, ms(all.samples[i].lag))
	}
	for _, q := range queries {
		if q > sloMs {
			slow++
		}
	}
	m.once("loadgen.sched_lag_p95_ms", "ms", percentile(lag, 0.95), len(lag))
	m.once("loadgen.backlog_max", "count", float64(all.backlogMax), 1)
	m.once("loadgen.slo_miss_share", "ratio", ratio(float64(slow+ph.failed), float64(len(queries)+ph.failed)), len(queries))
	m.once("loadgen.query_p99_ms", "ms", percentile(queries, 0.99), len(queries))
	m.once("loadgen.client_cpu_share", "ratio", ratio(all.clientCPU, all.clientCPU+all.serverCPU), 1)
	var tracedMs []float64
	for _, rs := range ph.rounds {
		tracedMs = append(tracedMs, rs.latencies(isQuery)...)
	}
	traced := percentile(tracedMs, 0.5)
	m.once("loadgen.trace_overhead_ratio", "ratio", ratio(traced, percentile(plain.latencies(isQuery), 0.5)), len(plain.samples))

	var steal []float64
	for _, rs := range ph.all {
		steal = append(steal, rs.steal)
	}
	m.once("host.steal_share", "ratio", median(steal), len(steal))
}

// generatorWarnings notes when the run measured the generator and not the
// server.
func generatorWarnings(rep *runReport) {
	for _, m := range rep.Metrics {
		switch {
		case m.Name == "loadgen.sched_lag_p95_ms" && m.Value > 5:
			rep.note("generator ran late (sched_lag_p95_ms = %.2f > 5): this run measured the generator", m.Value)
		case m.Name == "loadgen.client_cpu_share" && m.Value > 0.4:
			rep.note("generator used %.0f %% of the CPU time (> 40 %%): this run measured the generator", 100*m.Value)
		}
	}
}

// durableMetrics adds the write-ahead log's counters, the on-disk size and
// the recovery time. streams and results are everything the server was sent;
// walTotals is a scrape taken before the kill: the counters start at 0 with
// the process, so they are totals since the server started.
func durableMetrics(m *metricSet, w *workload, streams [][]op, results map[*op]*sample, walTotals promSample, diskBytes int64, recovery time.Duration) {
	userBytes := float64(w.Setup.csvBytes())
	for _, stream := range streams {
		for i := range stream {
			if s := results[&stream[i]]; s != nil && s.err == nil {
				userBytes += float64(len(stream[i].Data))
			}
		}
	}
	m.once("recovery_s", "s", recovery.Seconds(), 1)
	m.once("disk_bytes_per_user_byte", "ratio", ratio(float64(diskBytes), userBytes), 1)
	fsyncs := walTotals["sqlshare_wal_fsync_seconds_count"]
	m.once("wal.fsync_count", "count", fsyncs, 1)
	if w.Durable {
		m.once("wal.fsync_mean_ms", "ms", walTotals.histMean("sqlshare_wal_fsync_seconds")*1000, int(fsyncs))
	}
	m.once("wal.records_per_fsync", "ratio", ratio(walTotals["sqlshare_wal_records_total"], fsyncs), int(fsyncs))
	m.once("wal.bytes_per_user_byte", "ratio", ratio(walTotals["sqlshare_wal_bytes_total"], userBytes), 1)
}

// budgetMetrics turns the three serial replays into the latency budget and
// the metrics that come out of it. Only queries enter the budget: a write
// has no compile/execute split. catalogSelf is the self time of each op's
// catalog.query span: the span less its compile and execute children.
func budgetMetrics(m *metricSet, w *workload, ops []op, rest, served map[int]*sample, cat map[int]catalogSample, catalogSelf map[int]float64) *latencyBudget {
	var transport, handler, catSelf, compile, execute, observed, catQuery []float64
	var sumExecute, sumSelf, sumObserved, sumLongExecute float64
	byKind := map[opKind][]float64{}
	for i := range ops {
		o := &ops[i]
		r, s, c := rest[o.ID], served[o.ID], cat[o.ID]
		if o.isWrite() {
			byKind[o.Kind] = append(byKind[o.Kind], ms(c.total))
			continue
		}
		self := catalogSelf[o.ID]
		transport = append(transport, ms(r.latency-s.latency))
		handler = append(handler, ms(s.latency-c.total))
		catSelf = append(catSelf, self)
		compile = append(compile, ms(c.compile))
		execute = append(execute, ms(c.execute))
		catQuery = append(catQuery, ms(c.total))
		observed = append(observed, r.ms())
		sumExecute += ms(c.execute)
		sumSelf += self
		sumObserved += r.ms()
		if w.LongShapes[o.Shape] {
			sumLongExecute += ms(c.execute)
		}
	}
	n := len(observed)
	m.once("server.transport_p50_ms", "ms", median(transport), n)
	m.once("server.handler_self_p50_ms", "ms", median(handler), n)
	m.once("catalog.query_p50_ms", "ms", median(catQuery), n)
	m.once("catalog.self_p50_ms", "ms", median(catSelf), n)
	m.once("catalog.self_share", "ratio", ratio(sumSelf, sumObserved), n)
	m.once("engine.compile_p50_us", "us", median(compile)*1000, n)
	m.once("engine.execute_p50_ms", "ms", median(execute), n)
	m.once("engine.execute_share", "ratio", ratio(sumExecute, sumObserved), n)
	m.once("engine.quadratic_cpu_share", "ratio", ratio(sumLongExecute, sumExecute), n)
	for kind, name := range map[opKind]string{opAppend: "catalog.append_p50_ms", opUpload: "catalog.create_dataset_p50_ms", opMaterialize: "catalog.materialize_p50_ms"} {
		if v := byKind[kind]; len(v) > 0 {
			m.once(name, "ms", median(v), len(v))
		}
	}
	return &latencyBudget{
		Rows: []budgetRow{
			{"server.transport", median(transport)},
			{"server.handler_self", median(handler)},
			{"catalog.self", median(catSelf)},
			{"engine.compile", median(compile)},
			{"engine.execute", median(execute)},
		},
		ObservedMS: median(observed),
	}
}
