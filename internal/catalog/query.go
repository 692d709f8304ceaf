package catalog

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/history"
	"sqlshare/internal/jobs"
	"sqlshare/internal/obs"
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
	// Job, when non-nil, is the query's record in the server's job table:
	// the run publishes its phase, plan and progress into it, so the query
	// is listed at /api/queries/running with live counters. The caller runs
	// the query under the record's Context, which is what a kill cancels.
	// nil (every library caller) runs without a record.
	Job *jobs.Job
	// Deprecated: OpsID is ignored. A query's record is Job, whose id the
	// job table assigns; the field stays so that callers which set it still
	// compile.
	OpsID string
	// Deprecated: Trace is ignored. Every execution builds its operator
	// trace, and the log entry's Plan carries it; the field stays so that
	// callers which set it still compile.
	Trace bool
}

// Query parses, permission-checks, compiles, executes and logs a query on
// behalf of user. This is the code path behind the REST query endpoint
// (§3.3).
func (c *Catalog) Query(user, sql string) (*engine.Result, *LogEntry, error) {
	return c.QueryWithOptions(user, sql, QueryOptions{})
}

// QueryWithOptions is Query with row and memory limits, a worker cap,
// cancellation and a job record.
func (c *Catalog) QueryWithOptions(user, sql string, opts QueryOptions) (*engine.Result, *LogEntry, error) {
	if opts.Context == nil {
		opts.Context = context.Background()
	}
	start := time.Now()
	entry := &LogEntry{
		User:    user,
		SQL:     sql,
		Cache:   CacheBypass,
		TraceID: obs.TraceIDFromContext(opts.Context),
	}
	run := c.runQuery(entry, opts)
	entry.Runtime = time.Since(start)
	res, execErr := run.res, run.err

	if execErr == nil && run.explain {
		// EXPLAIN [ANALYZE]: the result set is the operator tree itself —
		// estimates alone, or estimates beside the run's actuals. Like every
		// statement's, its rows and bytes are those of the result it
		// returns: the operator table, not the analyzed query's result.
		res = explainResult(entry.Plan.Root, run.analyze, entry.Cache)
		entry.ResultBytes = res.Bytes
	}
	if execErr != nil {
		entry.Err = execErr.Error()
		entry.Aborted = errors.Is(execErr, engine.ErrRowLimit) || errors.Is(execErr, engine.ErrMemLimit)
	} else {
		entry.RowsReturned = len(res.Rows)
	}

	// The phase and operator spans are retained-only detail: the entry
	// already holds every number they show, so a sampled-out trace pays for
	// this closure and nothing else.
	if cur := obs.SpanFromContext(opts.Context); cur != nil {
		cur.Defer(func() { phaseSpans(cur, entry, execErr) })
	}

	// Fill the result cache: the versions in storeKey are those of the state
	// the execution read, so a mutation that raced this fill simply makes
	// the stored entry unreachable.
	if execErr == nil && run.storeKey != "" {
		if qc := c.resultCache.Load(); qc != nil {
			qc.PutResult(run.storeKey, &qcache.ResultEntry{
				Result: res,
				Bytes:  entry.ResultBytes,
				Plan:   entry.Plan.Estimates(),
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
	// result should be stored under. The versions inside it are those of
	// the one state the execution read, so filling after it is safe: a
	// concurrent mutation produces a new key, never a match for this one.
	storeKey string
}

// Phases and PhaseTiming are the entry's one timing of the run (see
// history.Phases); phaseClock below drives them.
type (
	Phases      = history.Phases
	PhaseTiming = history.PhaseTiming
)

// phaseSpanNames are the span names of the slots (history.Phase names the parse
// phase "parse"; its span has always been "sql.parse").
var phaseSpanNames = [...]string{"sql.parse", "authorize", "cache.probe", "plan.compile", "execute"}

// phaseClock drives entry.Phases through runQuery.
type phaseClock struct {
	ph   *Phases
	job  *jobs.Job
	open bool
}

// enter crosses a phase boundary: one clock reading closes the phase in
// flight and opens p, which is also published to the job record.
func (pc *phaseClock) enter(p history.Phase) {
	now := time.Now()
	if pc.open {
		pc.closeAt(now)
	}
	pc.job.SetPhase(p)
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
	for p := history.PhaseParse; p <= ph.Last; p++ {
		t := ph.Of(p)
		ch := sp.Child(phaseSpanNames[p-history.PhaseParse], t.Start, t.Dur)
		if ch == nil {
			return
		}
		if p == ph.Last {
			ch.Fail(execErr)
		}
		switch p {
		case history.PhaseAuthorize:
			if ph.Last > p {
				ch.SetAttr("datasets", strconv.Itoa(len(e.Datasets)))
			}
		case history.PhaseCacheProbe:
			ch.SetAttr("cache", e.Cache)
			if e.Cache == CacheHit {
				ch.AddRows(int64(e.RowsReturned))
				ch.AddBytes(e.ResultBytes)
			}
		case history.PhaseExecute:
			if e.Workers > 1 {
				ch.SetAttr("workers", strconv.Itoa(e.Workers))
			}
			if execErr == nil {
				ch.AddRows(int64(e.RowsReturned))
				ch.AddBytes(e.ResultBytes)
			}
			operatorSpans(ch, e.Plan.Root, t.Start)
		}
	}
}

// operatorSpans renders the plan tree's actuals (present once the run
// executed) as completed children of the execute span. Operator wall times
// are inclusive of children, and per-operator start offsets are not tracked
// by the engine, so every operator span starts at the execution start: the
// waterfall shows relative operator cost, not scheduling order.
func operatorSpans(parent *obs.Span, n *plan.Node, start time.Time) {
	if n == nil || n.Actual == nil {
		return
	}
	a := n.Actual
	sp := parent.Child("op:"+n.PhysicalOp, start, a.Wall)
	if sp == nil {
		return
	}
	sp.SetAttr("object", n.Object)
	if a.Workers > 1 {
		sp.SetAttr("workers", strconv.FormatInt(a.Workers, 10))
	}
	sp.AddRows(a.Rows)
	sp.AddBytes(a.Bytes)
	for _, ch := range n.Children {
		operatorSpans(sp, ch, start)
	}
}

// runQuery performs the read phase of Query on one published state, filling
// entry with everything the run learns: datasets, cache disposition, plan
// artifacts, operator trace, and the timing of each pipeline phase —
// sql.parse → authorize → cache.probe → plan.compile → execute.
func (c *Catalog) runQuery(entry *LogEntry, opts QueryOptions) (run queryRun) {
	user := entry.User
	clock := phaseClock{ph: &entry.Phases, job: opts.Job}
	defer func() {
		clock.stop()
		for p := history.PhaseParse; p < history.PhaseExecute; p++ {
			entry.Compile += entry.Phases.Of(p).Dur
		}
		entry.Execute = entry.Phases.Of(history.PhaseExecute).Dur
		entry.Time = c.clock()
	}()
	cur := obs.SpanFromContext(opts.Context)
	clock.enter(history.PhaseParse)
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
		q = s.Query
	case *sqlparser.QueryStatement:
		q = s.Query
	}
	// Bind every name once (bind.go), on the one state the rest of the run
	// reads, and permission-check the graph; the probe, the compile and the
	// log entry all read what this walk resolved.
	clock.enter(history.PhaseAuthorize)
	b := c.state.Load().bind(user, q)
	if err := b.authorize(); err != nil {
		run.err = err
		return run
	}
	entry.Datasets = b.root.datasets()
	// Probe the version-fenced cache. The bound datasets' versions are the
	// binding's state's, so they describe exactly the catalog state this
	// execution observes — captured before execution starts, as the fencing
	// contract requires. EXPLAIN always bypasses: its product is the plan,
	// not the result.
	cache := c.resultCache.Load()
	cacheable := cache != nil && !opts.NoCache && !run.explain && q != nil
	var resultKey string
	clock.enter(history.PhaseCacheProbe)
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
	clock.enter(history.PhasePlanCompile)
	p, err := b.compile()
	if err != nil {
		run.err = err
		return run
	}
	clock.stop()
	// Extract once, after the compile clock has stopped; the digest hashes
	// the template Extract already rendered. The job record is shown the
	// digest and the progress-estimate denominator.
	var attach func(*engine.ExecContext)
	entry.Plan, attach = plan.FromEngine(entry.SQL, p)
	entry.Meta = plan.Extract(entry.SQL, entry.Plan)
	entry.Digest = plan.DigestTemplate(entry.Meta.Template)
	opts.Job.SetPlan(entry.Digest, p.EstRowsTotal())
	if run.explain && !run.analyze {
		// Plain EXPLAIN compiles only; the caller renders the estimates.
		return run
	}
	dop := opts.Parallelism
	if dop <= 0 {
		dop = runtime.GOMAXPROCS(0)
	}
	ctx := &engine.ExecContext{
		Now: c.clock(), MaxRows: opts.MaxRows, MaxBytes: opts.MaxBytes,
		DOP: dop, Ctx: opts.Context, Progress: opts.Job.Progress(),
	}
	clock.enter(history.PhaseExecute)
	res, err := p.Execute(ctx)
	clock.stop()
	// The engine measured the run once: the rows-scanned metric, EXPLAIN
	// ANALYZE, /trace, history and the operator spans all read the actuals
	// this puts on the plan tree, and the cache charge and the usage
	// accounts read the result's size.
	attach(ctx)
	entry.Workers = 1
	entry.Plan.Walk(func(n *plan.Node) { entry.Workers = max(entry.Workers, int(n.Actual.Workers)) })
	c.countSegments(ctx)
	if err != nil {
		run.err = err
		return run
	}
	run.res = res
	entry.ResultBytes = res.Bytes
	if cacheable && p.Deterministic() {
		run.storeKey = resultKey
	}
	return run
}

// Explain returns the extracted plan for a query without executing it.
func (c *Catalog) Explain(user, sql string) (*plan.QueryPlan, error) {
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	p, err := c.state.Load().bind(user, q).plan()
	if err != nil {
		return nil, err
	}
	qp, _ := plan.FromEngine(sql, p)
	return qp, nil
}
