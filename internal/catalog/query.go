package catalog

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/history"
	"sqlshare/internal/obs"
	"sqlshare/internal/ops"
	"sqlshare/internal/plan"
	"sqlshare/internal/qcache"
	"sqlshare/internal/sqlparser"
)

// Cache states recorded on LogEntry.Cache.
const (
	CacheHit    = history.CacheHit
	CacheMiss   = history.CacheMiss
	CacheBypass = history.CacheBypass
)

// QueryOptions tunes one catalog query execution.
type QueryOptions struct {
	// Trace enables per-operator runtime instrumentation; the resulting
	// trace tree is attached to the log entry's Plan.
	Trace bool
	// MaxRows aborts the execution with engine.ErrRowLimit when any
	// operator materializes more than this many rows (0 = unlimited).
	MaxRows int
	// Parallelism caps the workers one query may use for intra-query
	// parallel execution: 0 = automatic (all of GOMAXPROCS), 1 = serial,
	// N>1 = at most N workers. Results are identical at every setting.
	Parallelism int
	// Context, when non-nil, cancels the execution: the engine checks it at
	// every operator boundary and between parallel morsels.
	Context context.Context
	// NoCache forces execution even when a result cache is attached; the
	// run is recorded as CacheBypass and fills nothing.
	NoCache bool
	// MaxBytes aborts the execution with engine.ErrMemLimit when its
	// reserved in-flight memory estimate exceeds this many bytes (0 =
	// unlimited) — the memory twin of MaxRows.
	MaxBytes int64
	// OpsID, when non-empty, is the id this query registers under in the
	// live-operations registry; the async job path passes its job id so
	// operators can kill by the id they already see in /api/queries. Empty
	// lets the registry assign one.
	OpsID string
}

// Query parses, permission-checks, compiles, executes and logs a query on
// behalf of user. This is the code path behind the REST query endpoint
// (§3.3).
func (c *Catalog) Query(user, sql string) (*engine.Result, *LogEntry, error) {
	return c.QueryWithOptions(user, sql, QueryOptions{})
}

// QueryWithOptions is Query with execution tracing and row limits.
func (c *Catalog) QueryWithOptions(user, sql string, opts QueryOptions) (*engine.Result, *LogEntry, error) {
	if opts.Context == nil {
		opts.Context = context.Background()
	}
	start := time.Now()
	// Register with the live-operations registry, when one is attached: the
	// query becomes visible in /api/queries/running and killable by id, and
	// the execution context is replaced by the registry's cancelable one.
	var live *ops.Entry
	if reg := c.liveOps.Load(); reg != nil {
		dop := opts.Parallelism
		if dop <= 0 {
			dop = runtime.GOMAXPROCS(0)
		}
		var lctx context.Context
		live, lctx = reg.Register(opts.Context, opts.OpsID, user, sql, dop)
		opts.Context = lctx
		defer live.Finish()
	}
	entry := &LogEntry{
		User:    user,
		SQL:     sql,
		Cache:   CacheBypass,
		TraceID: obs.TraceIDFromContext(opts.Context),
	}
	run := c.runQuery(entry, opts, live)
	entry.Runtime = time.Since(start)
	res, execErr := run.res, run.err

	if execErr == nil && run.explain {
		// EXPLAIN [ANALYZE]: the result set is the operator tree itself —
		// estimates alone, or estimates beside traced actuals.
		if run.analyze {
			res = explainAnalyzeResult(entry.Plan.Trace, entry.Cache)
		} else {
			res = explainResult(entry.Plan.Root)
		}
	}
	if execErr != nil {
		entry.Err = execErr.Error()
	} else {
		entry.RowsReturned = len(res.Rows)
	}

	c.recordQueryMetrics(entry, execErr)
	// The phase and operator spans are retained-only detail: the entry
	// already holds every number they show, so a sampled-out trace pays for
	// this closure and nothing else.
	if cur := obs.SpanFromContext(opts.Context); cur != nil {
		cur.Defer(func() { phaseSpans(cur, entry, execErr) })
	}

	// Fill the result cache outside the lock: the versions in storeKey were
	// captured under the read lock the execution held, so a mutation that
	// raced this fill simply makes the stored entry unreachable.
	if execErr == nil && run.storeKey != "" {
		if qc := c.resultCache.Load(); qc != nil {
			stored := *entry.Plan
			stored.Trace = nil
			qc.PutResult(run.storeKey, &qcache.ResultEntry{
				Result: res,
				Bytes:  entry.ResultBytes,
				Plan:   &stored,
				Meta:   entry.Meta,
				Digest: entry.Digest,
			})
		}
	}

	c.History().Record(entry)

	if execErr != nil {
		return nil, entry, execErr
	}
	return res, entry, nil
}

// resultBytesOf measures a result's payload width: the sum of value widths
// across all cells. The run that produced the result calls it once; the
// result cache charges and replays that number (qcache.ResultEntry.Bytes).
func resultBytesOf(res *engine.Result) int64 {
	if res == nil {
		return 0
	}
	var n int64
	for _, row := range res.Rows {
		for _, v := range row {
			n += int64(v.SizeBytes())
		}
	}
	return n
}

// queryRun is what the read phase of a query produces beside the log entry
// it fills in: the result (or error) and what the caller still has to do
// with it.
type queryRun struct {
	res *engine.Result
	err error
	// explain marks an EXPLAIN [ANALYZE] statement; analyze additionally
	// forces tracing and executes the inner query.
	explain bool
	analyze bool
	// storeKey, when non-empty, is the version-fenced key a successful
	// result should be stored under. The versions inside it were captured
	// under the same read lock the execution ran under, so filling after
	// the lock is released is safe: a concurrent mutation produces a new
	// key, never a match for this one.
	storeKey string
}

// recordQueryMetrics reports one finished entry to the metrics bundle, if
// one is attached. The hit histogram wants the full round trip
// (entry.Runtime), not the phase split.
func (c *Catalog) recordQueryMetrics(entry *LogEntry, execErr error) {
	m := c.metrics.Load()
	if m == nil {
		return
	}
	m.QueriesTotal.Inc()
	switch entry.Cache {
	case CacheHit:
		m.CacheHits.Inc()
		m.CacheHitSeconds.Observe(entry.Runtime.Seconds())
	case CacheMiss:
		m.CacheMisses.Inc()
	}
	m.CompileSeconds.Observe(entry.Compile.Seconds())
	if entry.Plan != nil && entry.Cache != CacheHit {
		// The run compiled its own plan (a hit borrows the fill run's).
		m.ExecSeconds.Observe(entry.Execute.Seconds())
	}
	if entry.Workers > 1 {
		m.ParallelQueries.Inc()
	}
	if execErr != nil {
		m.QueriesFailed.Inc()
		if errors.Is(execErr, engine.ErrRowLimit) || errors.Is(execErr, engine.ErrMemLimit) {
			m.QueriesAborted.Inc()
		}
	} else {
		m.RowsReturned.Add(int64(entry.RowsReturned))
	}
	if entry.Plan != nil {
		var scanned int64
		entry.Plan.Trace.WalkTrace(func(t *plan.TraceNode) {
			if t.Object != "" {
				scanned += t.ActualRows
			}
		})
		m.RowsScanned.Add(scanned)
	}
}

// Phases and PhaseTiming are the entry's one timing of the run (see
// history.Phases); phaseClock below drives them.
type (
	Phases      = history.Phases
	PhaseTiming = history.PhaseTiming
)

// phaseSpanNames are the span names of the slots (ops.Phase names the parse
// phase "parse"; its span has always been "sql.parse").
var phaseSpanNames = [...]string{"sql.parse", "authorize", "cache.probe", "plan.compile", "execute"}

// phaseClock drives entry.Phases through runQuery.
type phaseClock struct {
	ph   *Phases
	live *ops.Entry
	open bool
}

// enter crosses a phase boundary: one clock reading closes the phase in
// flight and opens p, which is also published to the live registry.
func (pc *phaseClock) enter(p ops.Phase) {
	now := time.Now()
	if pc.open {
		pc.closeAt(now)
	}
	pc.live.SetPhase(p)
	pc.ph.Last = p
	pc.ph.Of(p).Start = now
	pc.open = true
}

// stop closes the phase in flight, if any. Every exit of runQuery ends here.
func (pc *phaseClock) stop() {
	if pc.open {
		pc.closeAt(time.Now())
	}
}

func (pc *phaseClock) closeAt(now time.Time) {
	t := pc.ph.Of(pc.ph.Last)
	t.Dur = now.Sub(t.Start)
	pc.open = false
}

// phaseSpans renders the finished entry as completed children of sp: one
// span per phase the run entered, carrying the entry's own timings, and the
// operator waterfall under execute. It runs from Span.Defer, so only for
// traces the tail sampler retained.
func phaseSpans(sp *obs.Span, e *LogEntry, execErr error) {
	ph := &e.Phases
	for p := ops.PhaseParse; p <= ph.Last; p++ {
		t := ph.Of(p)
		ch := sp.Child(phaseSpanNames[p-ops.PhaseParse], t.Start, t.Dur)
		if ch == nil {
			return
		}
		if p == ph.Last {
			ch.Fail(execErr)
		}
		switch p {
		case ops.PhaseAuthorize:
			if ph.Last > p {
				ch.SetAttr("datasets", strconv.Itoa(len(e.Datasets)))
			}
		case ops.PhaseCacheProbe:
			ch.SetAttr("cache", e.Cache)
			if e.Cache == CacheHit {
				ch.AddRows(int64(e.RowsReturned))
				ch.AddBytes(e.ResultBytes)
			}
		case ops.PhaseExecute:
			ch.AddCPU(t.Dur)
			if e.Workers > 1 {
				ch.SetAttr("workers", strconv.Itoa(e.Workers))
			}
			if execErr == nil {
				ch.AddRows(int64(e.RowsReturned))
				ch.AddBytes(e.ResultBytes)
			}
			operatorSpans(ch, e.Plan.Trace, t.Start)
		}
	}
}

// operatorSpans renders the per-operator trace (present only on traced
// runs) as completed children of the execute span. Operator wall times are
// inclusive of children, and per-operator start offsets are not tracked by
// the engine, so every operator span starts at the execution start: the
// waterfall shows relative operator cost, not scheduling order.
func operatorSpans(parent *obs.Span, t *plan.TraceNode, start time.Time) {
	if t == nil {
		return
	}
	sp := parent.Child("op:"+t.PhysicalOp, start, time.Duration(t.WallMillis*float64(time.Millisecond)))
	if sp == nil {
		return
	}
	sp.SetAttr("object", t.Object)
	if t.Workers > 1 {
		sp.SetAttr("workers", strconv.FormatInt(t.Workers, 10))
	}
	sp.AddRows(t.ActualRows)
	sp.AddBytes(t.ActualBytes)
	for _, ch := range t.Children {
		operatorSpans(sp, ch, start)
	}
}

// runQuery performs the read phase of Query under the read lock, filling
// entry with everything the run learns: datasets, cache disposition, plan
// artifacts, operator trace, and the timing of each pipeline phase —
// sql.parse → authorize → cache.probe → plan.compile → execute.
func (c *Catalog) runQuery(entry *LogEntry, opts QueryOptions, live *ops.Entry) (run queryRun) {
	user := entry.User
	clock := phaseClock{ph: &entry.Phases, live: live}
	c.mu.RLock()
	defer func() {
		clock.stop()
		for p := ops.PhaseParse; p < ops.PhaseExecute; p++ {
			entry.Compile += entry.Phases.Of(p).Dur
		}
		entry.Execute = entry.Phases.Of(ops.PhaseExecute).Dur
		// The catalog clock is read under the read lock it requires.
		entry.Time = c.now()
		c.mu.RUnlock()
	}()
	cur := obs.SpanFromContext(opts.Context)
	clock.enter(ops.PhaseParse)
	stmt, err := sqlparser.ParseStatement(entry.SQL)
	if err != nil {
		run.err = err
		return run
	}
	var q sqlparser.QueryExpr
	switch s := stmt.(type) {
	case *sqlparser.ExplainStmt:
		run.explain = true
		run.analyze = s.Analyze
		if s.Analyze {
			// EXPLAIN ANALYZE executes with tracing forced on: the result
			// is the estimate-vs-actual operator tree.
			opts.Trace = true
		}
		q = s.Query
	case *sqlparser.QueryStatement:
		q = s.Query
	}
	// Bind every name once (bind.go) and permission-check the graph; the
	// probe, the compile and the log entry all read what this walk resolved.
	clock.enter(ops.PhaseAuthorize)
	b := c.bindLocked(user, q)
	if err := b.authorize(); err != nil {
		run.err = err
		return run
	}
	entry.Datasets = b.root.datasets()
	// Probe the version-fenced cache. The bound datasets' versions are read
	// under the same read lock the whole run holds, so they describe exactly
	// the catalog state this execution observes — captured before execution
	// starts, as the fencing contract requires. EXPLAIN always bypasses:
	// its product is the plan, not the result.
	cache := c.resultCache.Load()
	cacheable := cache != nil && !opts.NoCache && !run.explain && q != nil
	var resultKey string
	clock.enter(ops.PhaseCacheProbe)
	if cacheable {
		resultKey = qcache.ResultKey(user, q.SQL(), opts.MaxRows, b.versions())
		if ent := cache.GetResult(resultKey); ent != nil {
			clock.stop()
			// A hit skips compilation; the log entry reuses the plan
			// artifacts cached alongside the result, digest included.
			entry.Cache = CacheHit
			entry.Plan, entry.Meta, entry.Digest = ent.Plan, ent.Meta, ent.Digest
			run.res = ent.Result
			entry.ResultBytes = ent.Bytes
			// The tail sampler reads the disposition off a live span,
			// before the phase spans are rendered.
			cur.SetAttr("cache", entry.Cache)
			return run
		}
		entry.Cache = CacheMiss
	}
	// Tag the disposition only when a cache was in play or the caller
	// explicitly skipped one: the tail sampler retains "bypass" traces as
	// interesting, which a cacheless server's every query is not.
	if cache != nil || opts.NoCache {
		cur.SetAttr("cache", entry.Cache)
	}
	clock.enter(ops.PhasePlanCompile)
	p, err := b.compile()
	if err != nil {
		run.err = err
		return run
	}
	clock.stop()
	// Extract once, after the compile clock has stopped; the digest hashes
	// the template Extract already rendered. The live registry is shown the
	// normalized template (what history clusters on; it hashes it into a
	// digest only when a snapshot asks) and the progress-estimate denominator.
	entry.Plan = plan.FromEngine(entry.SQL, p)
	entry.Meta = plan.Extract(entry.SQL, entry.Plan)
	entry.Digest = plan.DigestTemplate(entry.Meta.Template)
	live.SetPlan(entry.Meta.Template, p.EstRowsTotal())
	if run.explain && !run.analyze {
		// Plain EXPLAIN compiles only; the caller renders the estimates.
		return run
	}
	dop := opts.Parallelism
	if dop <= 0 {
		dop = runtime.GOMAXPROCS(0)
	}
	ctx := &engine.ExecContext{
		Now: c.now(), MaxRows: opts.MaxRows, MaxBytes: opts.MaxBytes,
		DOP: dop, Ctx: opts.Context, Progress: live.Progress(),
	}
	if opts.Trace {
		ctx.EnableTracing()
	}
	clock.enter(ops.PhaseExecute)
	res, err := p.Execute(ctx)
	clock.stop()
	// The engine's trace is converted once; the rows-scanned metric, EXPLAIN
	// ANALYZE, /trace, history and the operator spans all read this tree.
	entry.Plan.Trace = plan.FromTrace(p.BuildTrace(ctx))
	entry.Workers = ctx.MaxWorkers()
	if err != nil {
		run.err = err
		return run
	}
	run.res = res
	entry.ResultBytes = resultBytesOf(res)
	if cacheable && p.Deterministic() {
		run.storeKey = resultKey
	}
	return run
}

// Explain returns the extracted plan for a query without executing it.
func (c *Catalog) Explain(user, sql string) (*plan.QueryPlan, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	p, err := c.compileLocked(user, q)
	if err != nil {
		return nil, err
	}
	return plan.FromEngine(sql, p), nil
}
