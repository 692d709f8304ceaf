package catalog

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/obs"
	"sqlshare/internal/ops"
	"sqlshare/internal/plan"
	"sqlshare/internal/qcache"
	"sqlshare/internal/sqlparser"
)

// Cache states recorded on LogEntry.Cache and surfaced in EXPLAIN ANALYZE
// output, job status and traces.
const (
	// CacheHit: the result was served from the version-fenced cache.
	CacheHit = "hit"
	// CacheMiss: the cache was probed, missed, and the query executed.
	CacheMiss = "miss"
	// CacheBypass: the cache was not probed (detached, NoCache, EXPLAIN,
	// or an unresolvable dependency closure).
	CacheBypass = "bypass"
)

// LogEntry is one record of the query log — the unit of the released
// workload corpus (§4). Every executed query is logged with its plan and
// extracted metadata.
type LogEntry struct {
	ID   int
	User string
	SQL  string
	Time time.Time
	// Runtime is the measured wall-clock execution time.
	Runtime time.Duration
	// Datasets lists the dataset full names the query referenced directly.
	Datasets []string
	// Plan and Meta are the Phase 1/Phase 2 extraction outputs.
	Plan *plan.QueryPlan
	Meta *plan.Metadata
	// Err records a failed execution; failed queries are logged too.
	Err string
	// RowsReturned is the result cardinality of a successful run.
	RowsReturned int
	// Compile and Execute split Runtime into the parse/permission/plan
	// phase and the execution phase.
	Compile time.Duration
	Execute time.Duration
	// Digest is the stable hash of the normalized operator tree
	// (plan.QueryPlan.Digest). It is computed on demand — when a history
	// recorder is attached — and stays empty otherwise, keeping template
	// rendering off the untracked query fast path.
	Digest string
	// Cache records how the result cache participated in this execution:
	// CacheHit, CacheMiss or CacheBypass.
	Cache string
	// TraceID links this entry to the request span tree in the trace store,
	// when the execution ran inside an active trace.
	TraceID string
	// ResultBytes estimates the result payload width (sum of value widths),
	// the bytes dimension of per-user resource accounting.
	ResultBytes int64
}

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
	// Phase spans are retained-only instrumentation: runQuery records phase
	// boundaries into a flat recorder, and the detail spans (parse →
	// authorize → cache.probe → plan.compile → execute, plus the operator
	// waterfall) materialize under the caller's span only if the tail
	// sampler keeps the trace. A sampled-out point query pays for one
	// recorder and one closure, not five span lifecycles.
	cur := obs.SpanFromContext(opts.Context)
	var rec *phaseRecorder
	if cur != nil {
		rec = recorderPool.Get().(*phaseRecorder)
	}
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
	run := c.runQuery(user, sql, opts, rec, live)
	elapsed := time.Since(start)
	if rec != nil {
		// DeferOn guarantees Release (back to the pool) whether or not the
		// tail sampler retains the trace and materializes the phases.
		cur.DeferOn(rec)
	}
	res, execErr := run.res, run.err

	entry := &LogEntry{
		User:        user,
		SQL:         sql,
		Datasets:    run.datasets,
		Runtime:     elapsed,
		Compile:     run.compile,
		Execute:     run.execute,
		TraceID:     obs.TraceIDFromContext(opts.Context),
		ResultBytes: run.resultBytes,
	}
	entry.Cache = run.cache
	if run.plan != nil {
		// Digest stays empty here: ensureDigest fills it on demand when
		// history, usage or the cache fill wants it.
		entry.Plan = run.qplan
		entry.Meta = run.meta
		if run.trace != nil {
			entry.Plan.Trace = plan.FromTrace(run.trace)
		}
	} else if run.hit != nil {
		// A hit skips compilation; the log entry reuses the plan artifacts
		// cached alongside the result, digest included.
		entry.Plan = run.hit.Plan
		entry.Meta = run.hit.Meta
		entry.Digest = run.hit.Digest
		ensureDigest(entry)
	}
	if execErr == nil && run.explain {
		// EXPLAIN [ANALYZE]: the result set is the operator tree itself —
		// estimates alone, or estimates beside traced actuals.
		if run.analyze {
			res = explainAnalyzeResult(entry.Plan.Trace, run.cache)
		} else {
			res = explainResult(entry.Plan.Root)
		}
	}
	if execErr != nil {
		entry.Err = execErr.Error()
	} else {
		entry.RowsReturned = len(res.Rows)
	}

	c.recordQueryMetrics(run, elapsed, execErr)

	// Fill the result cache outside the lock: the versions in storeKey were
	// captured under the read lock the execution held, so a mutation that
	// raced this fill simply makes the stored entry unreachable.
	if execErr == nil && run.storeKey != "" && entry.Plan != nil {
		if qc := c.resultCache.Load(); qc != nil {
			stored := *entry.Plan
			stored.Trace = nil
			ensureDigest(entry)
			qc.PutResult(run.storeKey, &qcache.ResultEntry{
				Result: res,
				Plan:   &stored,
				Meta:   entry.Meta,
				Digest: entry.Digest,
			})
		}
	}

	entry.Time = run.at
	c.logMu.Lock()
	c.seq++
	entry.ID = c.seq
	c.log = append(c.log, entry)
	c.logMu.Unlock()

	c.recordHistory(entry)
	c.recordUsage(entry, execErr)

	if execErr != nil {
		return nil, entry, execErr
	}
	return res, entry, nil
}

// recordUsage folds the finished entry into the per-user/per-digest usage
// meters. CPU is estimated as compile+execute wall time — honest for this
// engine's mostly-serial phases; parallel operators under-report slightly,
// which keeps the estimate conservative for admission-control use.
func (c *Catalog) recordUsage(entry *LogEntry, execErr error) {
	m := c.metrics.Load()
	if m == nil || m.Usage == nil {
		return
	}
	ensureDigest(entry)
	cpu := (entry.Compile + entry.Execute).Seconds()
	m.Usage.Record(entry.User, entry.Digest, cpu,
		int64(entry.RowsReturned), entry.ResultBytes,
		execErr != nil, entry.Cache == CacheHit)
}

// resultBytesOf estimates a result's payload width: the sum of value widths
// across all cells, the same estimate the result cache charges.
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

// queryRun is the outcome of the read phase of a query: the result (or
// error), the permission-checked dataset names, the compiled plan, the
// execution trace, and the compile/execute latency split.
type queryRun struct {
	res      *engine.Result
	datasets []string
	plan     *engine.Plan
	trace    *engine.TraceNode
	compile  time.Duration
	execute  time.Duration
	err      error
	// explain marks an EXPLAIN [ANALYZE] statement; analyze additionally
	// forces tracing and executes the inner query.
	explain bool
	analyze bool
	// workers is the largest worker count any operator actually used
	// (1 = the whole query ran serial).
	workers int
	// cache is the CacheHit/CacheMiss/CacheBypass disposition of the run.
	cache string
	// storeKey, when non-empty, is the version-fenced key a successful
	// result should be stored under. The versions inside it were captured
	// under the same read lock the execution ran under, so filling after
	// the lock is released is safe: a concurrent mutation produces a new
	// key, never a match for this one.
	storeKey string
	// hit is the cache entry a CacheHit was served from; its plan artifacts
	// populate the log entry without recompiling.
	hit *qcache.ResultEntry
	// qplan/meta are the plan artifacts extracted from plan right after
	// compile: the log entry's Plan and Meta, and the template the live
	// registry shows.
	qplan *plan.QueryPlan
	meta  *plan.Metadata
	// resultBytes estimates the result payload width (0 on error).
	resultBytes int64
	// at is the catalog clock's reading when the read phase ended — the log
	// entry's timestamp, taken under the read lock the clock requires.
	at time.Time
}

// recordQueryMetrics reports one finished query run to the metrics bundle,
// if one is attached. elapsed is the end-to-end latency (the hit histogram
// wants the full round trip, not the phase split).
func (c *Catalog) recordQueryMetrics(run queryRun, elapsed time.Duration, execErr error) {
	m := c.metrics.Load()
	if m == nil {
		return
	}
	m.QueriesTotal.Inc()
	switch run.cache {
	case CacheHit:
		m.CacheHits.Inc()
		m.CacheHitSeconds.Observe(elapsed.Seconds())
	case CacheMiss:
		m.CacheMisses.Inc()
	}
	m.CompileSeconds.Observe(run.compile.Seconds())
	if run.plan != nil {
		m.ExecSeconds.Observe(run.execute.Seconds())
	}
	if run.workers > 1 {
		m.ParallelQueries.Inc()
	}
	if execErr != nil {
		m.QueriesFailed.Inc()
		if errors.Is(execErr, engine.ErrRowLimit) || errors.Is(execErr, engine.ErrMemLimit) {
			m.QueriesAborted.Inc()
		}
	} else if run.res != nil {
		m.RowsReturned.Add(int64(len(run.res.Rows)))
	}
	if run.trace != nil {
		var scanned int64
		walkTrace(run.trace, func(t *engine.TraceNode) {
			if t.Object != "" {
				scanned += t.ActualRows
			}
		})
		m.RowsScanned.Add(scanned)
	}
}

func walkTrace(t *engine.TraceNode, f func(*engine.TraceNode)) {
	if t == nil {
		return
	}
	f(t)
	for _, ch := range t.Children {
		walkTrace(ch, f)
	}
}

// phaseRec is one recorded pipeline phase, enough to rebuild its span.
type phaseRec struct {
	name         string
	start        time.Time
	dur          time.Duration
	err          error
	attrK, attrV string
	rows, bytes  int64
	cpu          time.Duration
}

// setAttr records the phase's single attribute. Nil-safe so call sites can
// chain off endPhase without re-checking the recorder.
func (p *phaseRec) setAttr(k, v string) {
	if p != nil {
		p.attrK, p.attrV = k, v
	}
}

// phaseRecorder captures the pipeline phases of one traced run so their
// detail spans can be deferred to trace assembly (retained traces only).
// A nil recorder — any untraced run — makes every method a no-op.
type phaseRecorder struct {
	phases [6]phaseRec
	n      int
	// last is the previous phase's end — which on the contiguous pipeline
	// is the next phase's start, saving a clock read per boundary.
	last time.Time
	// opTree/execStart carry the engine's per-operator trace so the
	// waterfall can hang off the materialized execute span.
	opTree    *engine.TraceNode
	execStart time.Time
}

// lastTime returns the previous phase's end (the next phase's start).
// Nil-safe: the untraced path takes no extra clock readings.
func (r *phaseRecorder) lastTime() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.last
}

// endPhase records a phase that started at start and just finished.
func (r *phaseRecorder) endPhase(name string, start time.Time, err error) *phaseRec {
	if r == nil || r.n == len(r.phases) {
		return nil
	}
	end := time.Now()
	r.last = end
	p := &r.phases[r.n]
	r.n++
	*p = phaseRec{name: name, start: start, dur: end.Sub(start), err: err}
	return p
}

// recorderPool recycles phase recorders: one is taken per traced query and
// always returned (DeferOn's Release guarantee), so steady-state tracing
// records phases without allocating.
var recorderPool = sync.Pool{New: func() any { return new(phaseRecorder) }}

// Release implements obs.Deferred: reset and return to the pool.
func (r *phaseRecorder) Release() {
	*r = phaseRecorder{}
	recorderPool.Put(r)
}

// Materialize implements obs.Deferred: render the recorded phases as
// completed children of sp, the operator waterfall under the execute
// phase. Runs only after the tail sampler decided to retain the trace.
func (r *phaseRecorder) Materialize(sp *obs.Span) {
	for i := 0; i < r.n; i++ {
		p := &r.phases[i]
		ch := sp.Child(p.name, p.start, p.dur)
		if ch == nil {
			return
		}
		ch.Fail(p.err)
		if p.attrK != "" {
			ch.SetAttr(p.attrK, p.attrV)
		}
		ch.AddRows(p.rows)
		ch.AddBytes(p.bytes)
		ch.AddCPU(p.cpu)
		if p.name == "execute" && r.opTree != nil {
			attachOperatorSpans(ch, r.opTree, r.execStart)
		}
	}
}

// runQuery performs the read phase of Query under the read lock. On traced
// runs each pipeline phase — sql.parse → authorize → cache.probe →
// plan.compile → execute — is recorded into rec (nil when the request
// carries no active trace); the caller defers materializing them as
// siblings under its span so the waterfall reads as the phases of one
// request without costing sampled-out traces anything.
func (c *Catalog) runQuery(user, sql string, opts QueryOptions, rec *phaseRecorder, live *ops.Entry) (run queryRun) {
	c.mu.RLock()
	defer func() {
		run.at = c.now()
		c.mu.RUnlock()
	}()
	run.cache = CacheBypass
	cur := obs.SpanFromContext(opts.Context)
	live.SetPhase(ops.PhaseParse)
	compileStart := time.Now()
	stmt, err := sqlparser.ParseStatement(sql)
	rec.endPhase("sql.parse", compileStart, err)
	if err != nil {
		run.compile = time.Since(compileStart)
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
	// Permission-check every directly referenced dataset before compiling.
	live.SetPhase(ops.PhaseAuthorize)
	authStart := rec.lastTime()
	for _, name := range sqlparser.ReferencedTables(q) {
		if strings.HasPrefix(name, basePrefix) {
			run.compile = time.Since(compileStart)
			run.err = &AccessError{User: user, Dataset: name, Reason: "base tables are internal"}
			rec.endPhase("authorize", authStart, run.err)
			return run
		}
		ds, err := c.lookupLocked(user, name)
		if err != nil {
			run.compile = time.Since(compileStart)
			run.err = err
			rec.endPhase("authorize", authStart, err)
			return run
		}
		if err := c.checkAccessLocked(user, ds); err != nil {
			run.compile = time.Since(compileStart)
			run.err = err
			rec.endPhase("authorize", authStart, err)
			return run
		}
		run.datasets = append(run.datasets, ds.FullName())
	}
	if p := rec.endPhase("authorize", authStart, nil); p != nil {
		p.setAttr("datasets", strconv.Itoa(len(run.datasets)))
	}
	// Probe the version-fenced cache. The closure versions are read under
	// the same read lock the whole run holds, so they describe exactly the
	// catalog state this execution observes — captured before execution
	// starts, as the fencing contract requires. EXPLAIN always bypasses:
	// its product is the plan, not the result.
	cache := c.resultCache.Load()
	cacheable := cache != nil && !opts.NoCache && !run.explain && q != nil
	var resultKey, planKey string
	live.SetPhase(ops.PhaseCacheProbe)
	probeStart := rec.lastTime()
	if cacheable {
		canonical := q.SQL()
		vv, ok := c.versionClosureLocked(user, q)
		if !ok {
			// Unresolvable dependency closure (the compile below will fail,
			// or resolution is ambiguous): don't cache against it.
			cacheable = false
		} else {
			resultKey = qcache.ResultKey(user, canonical, opts.MaxRows, vv)
			planKey = qcache.PlanKey(user, canonical, opts.MaxRows, vv)
			if ent := cache.GetResult(resultKey); ent != nil {
				run.compile = time.Since(compileStart)
				run.cache = CacheHit
				run.res = ent.Result
				run.hit = ent
				run.resultBytes = resultBytesOf(run.res)
				// The cache disposition must land on a *live* span: the
				// tail sampler reads it before deferred phases materialize.
				cur.SetAttr("cache", run.cache)
				if p := rec.endPhase("cache.probe", probeStart, nil); p != nil {
					p.setAttr("cache", run.cache)
					p.rows = int64(len(run.res.Rows))
					p.bytes = run.resultBytes
				}
				return run
			}
			run.cache = CacheMiss
		}
	}
	// Tag the disposition only when a cache was in play or the caller
	// explicitly skipped one: the tail sampler retains "bypass" traces as
	// interesting, which a cacheless server's every query is not.
	tagCache := cache != nil || opts.NoCache
	if tagCache {
		cur.SetAttr("cache", run.cache)
	}
	if p := rec.endPhase("cache.probe", probeStart, nil); p != nil && tagCache {
		p.setAttr("cache", run.cache)
	}
	var p *engine.Plan
	live.SetPhase(ops.PhasePlanCompile)
	compilePhaseStart := rec.lastTime()
	if cacheable {
		p = cache.GetPlan(planKey)
	}
	planCached := p != nil
	if p == nil {
		var err error
		p, err = engine.Compile(q, c.resolverLocked(user))
		if err != nil {
			run.compile = time.Since(compileStart)
			run.err = err
			rec.endPhase("plan.compile", compilePhaseStart, err)
			return run
		}
		if cacheable {
			cache.PutPlan(planKey, p)
		}
	}
	if pr := rec.endPhase("plan.compile", compilePhaseStart, nil); pr != nil && planCached {
		pr.setAttr("planCache", "hit")
	}
	run.compile = time.Since(compileStart)
	run.plan = p
	// Extract once, after the compile clock has stopped. The live registry
	// is shown the normalized template (what history clusters on; it hashes
	// it into a digest only when a snapshot asks) and the progress-estimate
	// denominator.
	run.qplan = plan.FromEngine(sql, p)
	run.meta = plan.Extract(sql, run.qplan)
	live.SetPlan(run.meta.Template, p.EstRowsTotal())
	if run.explain && !run.analyze {
		// Plain EXPLAIN compiles only; the caller renders the estimates.
		return run
	}
	dop := opts.Parallelism
	if dop <= 0 {
		dop = runtime.GOMAXPROCS(0)
	}
	live.SetPhase(ops.PhaseExecute)
	ctx := &engine.ExecContext{
		Now: c.now(), MaxRows: opts.MaxRows, MaxBytes: opts.MaxBytes,
		DOP: dop, Ctx: opts.Context, Progress: live.Progress(),
	}
	if opts.Trace {
		ctx.EnableTracing()
	}
	execStart := time.Now()
	res, err := p.Execute(ctx)
	run.execute = time.Since(execStart)
	run.trace = p.BuildTrace(ctx)
	run.workers = ctx.MaxWorkers()
	ep := rec.endPhase("execute", execStart, err)
	if ep != nil {
		ep.cpu = run.execute
		if run.workers > 1 {
			ep.setAttr("workers", strconv.Itoa(run.workers))
		}
		// The operator tree rides along so the waterfall can hang off the
		// materialized execute span — retained-only work, like the phases.
		rec.opTree = run.trace
		rec.execStart = execStart
	}
	if err != nil {
		run.err = err
		return run
	}
	run.res = res
	run.resultBytes = resultBytesOf(res)
	if ep != nil {
		ep.rows = int64(len(res.Rows))
		ep.bytes = run.resultBytes
	}
	if cacheable && p.Deterministic() {
		run.storeKey = resultKey
	}
	return run
}

// attachOperatorSpans bridges the engine's per-operator TraceNode tree
// (measured by the PR-1 operator tracer, present only on traced runs) into
// the span tree as completed children of the execute span. Operator wall
// times are inclusive of children, and per-operator start offsets are not
// tracked by the engine, so every bridged span starts at the execution
// start: the waterfall shows relative operator cost, not scheduling order.
func attachOperatorSpans(parent *obs.Span, t *engine.TraceNode, start time.Time) {
	if parent == nil || t == nil {
		return
	}
	sp := parent.Child("op:"+t.PhysicalOp, start, t.Wall)
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
		attachOperatorSpans(sp, ch, start)
	}
}

// Explain returns the extracted plan for a query without executing it.
func (c *Catalog) Explain(user, sql string) (*plan.QueryPlan, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	for _, name := range sqlparser.ReferencedTables(q) {
		if strings.HasPrefix(name, basePrefix) {
			continue
		}
		ds, err := c.lookupLocked(user, name)
		if err != nil {
			return nil, err
		}
		if err := c.checkAccessLocked(user, ds); err != nil {
			return nil, err
		}
	}
	p, err := engine.Compile(q, c.resolverLocked(user))
	if err != nil {
		return nil, err
	}
	return plan.FromEngine(sql, p), nil
}

// Log returns the query log in execution order.
func (c *Catalog) Log() []*LogEntry {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	return append([]*LogEntry(nil), c.log...)
}

// LogSize returns the number of logged queries.
func (c *Catalog) LogSize() int {
	c.logMu.Lock()
	defer c.logMu.Unlock()
	return len(c.log)
}
