// Package engine implements the relational query processor that stands in
// for the paper's Microsoft SQL Azure backend (§3.3–3.4): logical planning,
// physical operator selection using the SQL Server operator vocabulary,
// volcano-style execution over the storage layer, and SHOWPLAN-style cost
// and cardinality estimates that feed the workload-analysis pipeline (§4).
package engine

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"sqlshare/internal/sqlparser"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

// Resolution is the result of resolving a dataset name: exactly one of
// Table (a physical base table) or View (a saved query definition) is set.
type Resolution struct {
	Table *storage.Table
	View  sqlparser.QueryExpr
	// Scope is what the names inside View resolve through; nil means the
	// resolver that returned this Resolution.
	Scope Resolver
}

// Resolver maps dataset names to base tables or view definitions. The
// catalog implements this; tests may use simple map-based resolvers.
type Resolver interface {
	ResolveDataset(name string) (Resolution, error)
}

// MapResolver is a Resolver over a fixed set of tables and views, used by
// tests and examples that bypass the catalog.
type MapResolver struct {
	Tables map[string]*storage.Table
	Views  map[string]sqlparser.QueryExpr
}

// ResolveDataset implements Resolver.
func (m MapResolver) ResolveDataset(name string) (Resolution, error) {
	if t, ok := m.Tables[name]; ok {
		return Resolution{Table: t}, nil
	}
	if v, ok := m.Views[name]; ok {
		return Resolution{View: v}, nil
	}
	return Resolution{}, fmt.Errorf("engine: dataset %q not found", name)
}

// ColMeta describes one output column of a relation: the binding (table
// alias) it came from, its name, its inferred type, and — for columns that
// flow unchanged out of a stored dataset — the dataset they originate from
// (used by the §4 extraction pipeline to attribute column references).
type ColMeta struct {
	Binding string
	Name    string
	Type    sqltypes.Type
	Source  string
}

// Result is the caller-visible result of executing a query.
type Result struct {
	Cols []ColMeta
	Rows []storage.Row
}

// ColumnNames returns the output column names in order.
func (r *Result) ColumnNames() []string {
	names := make([]string, len(r.Cols))
	for i, c := range r.Cols {
		names[i] = c.Name
	}
	return names
}

// TextRows renders the first n rows (at most all of them) as text: the form
// a query's result and a dataset's preview are served in.
func (r *Result) TextRows(n int) [][]string {
	out := make([][]string, min(n, len(r.Rows)))
	for i := range out {
		out[i] = make([]string, len(r.Rows[i]))
		for j, v := range r.Rows[i] {
			out[i][j] = v.String()
		}
	}
	return out
}

// Plan is a compiled, executable physical plan. It carries the
// once-per-execution state of its uncorrelated subplans (subplan.cache) and
// split EXISTS probes (eqProbe's table, extremeProbe.found), so a plan is
// executed once per Compile: a second Execute would replay the first one's
// subquery results.
type Plan struct {
	Root Node
	// Columns is the output schema of the query.
	Columns []ColMeta
	// RefColumns maps each referenced dataset name to the distinct column
	// names the query touches on it (Listing 1's "columns" property).
	RefColumns map[string][]string
	// Tables lists the referenced dataset names in first-use order.
	Tables []string
	// ExprOps counts expression operators seen during compilation, using
	// the Table 4 vocabulary (arithmetic upper-cased, intrinsics
	// lower-cased). View-expanded expressions are included, as they were
	// in the paper's SHOWPLAN-based extraction.
	ExprOps map[string]int
}

// Deterministic reports whether repeated executions over unchanged inputs
// return identical rows. GETDATE is the engine's only nondeterministic
// intrinsic (ExecContext.Now varies per execution); everything else is a
// pure function of the referenced tables. Result caches must not store
// nondeterministic results, though their plans remain reusable.
func (p *Plan) Deterministic() bool {
	return p.ExprOps["getdate"] == 0
}

// Progress publishes live counters for one executing query. Every field is
// atomic, so the live-operations registry (internal/ops) can read a
// consistent-enough snapshot while the execution runs — no locks on the
// execution hot path, no quiescence required to observe it. Rows, Bytes and
// Ops accumulate over completed operator invocations; Mem tracks the
// currently reserved memory estimate (MemPeak its high-water mark), charged
// at the engine's materialization sites and released as inputs are consumed.
type Progress struct {
	// Rows is the total rows produced across all completed operators.
	Rows atomic.Int64
	// Bytes is the total logical bytes produced across all completed
	// operators (relationBytes of every operator output, cumulative).
	Bytes atomic.Int64
	// Ops counts completed operator invocations.
	Ops atomic.Int64
	// Mem is the current reserved-memory estimate; MemPeak its high-water.
	Mem     atomic.Int64
	MemPeak atomic.Int64
	// op points at the PhysicalOp label of the operator most recently
	// entered (a pointer into the plan's Props, stable for the plan's life).
	op atomic.Pointer[string]
}

// CurrentOp reports the operator the execution most recently entered
// ("" before the first operator runs).
func (p *Progress) CurrentOp() string {
	if s := p.op.Load(); s != nil {
		return *s
	}
	return ""
}

// reserve charges n bytes against the live-memory estimate and returns the
// new total, maintaining the peak.
func (p *Progress) reserve(n int64) int64 {
	cur := p.Mem.Add(n)
	for {
		peak := p.MemPeak.Load()
		if cur <= peak || p.MemPeak.CompareAndSwap(peak, cur) {
			return cur
		}
	}
}

// ExecContext carries per-execution state.
type ExecContext struct {
	// Now is the clock used by GETDATE(); fixed for determinism.
	Now time.Time
	// MaxRows aborts runaway queries when > 0: any operator whose output
	// exceeds the limit fails the execution with ErrRowLimit.
	MaxRows int
	// MaxBytes aborts runaway queries when > 0: an execution whose reserved
	// in-flight memory estimate (operator outputs plus join/sort/aggregate
	// working state, measured by value widths) exceeds the limit fails with
	// ErrMemLimit — the memory-dimension twin of MaxRows.
	MaxBytes int64
	// Progress, when non-nil, receives live per-operator counters readable
	// while the query runs (see the live-operations registry). Execute
	// allocates one automatically when MaxBytes is set, since memory
	// accounting rides on the same counters.
	Progress *Progress
	// DOP caps the intra-query degree of parallelism: the maximum workers
	// one operator may fan out over. <= 1 executes fully serial. Workers
	// beyond the first come from a process-wide pool budgeted at
	// runtime.GOMAXPROCS(0), so the effective worker count per operator is
	// min(DOP, morsels, available pool); results are bit-identical at
	// every DOP (see parallel.go).
	DOP int
	// Ctx, when non-nil, cancels the execution: operators check it between
	// morsels and execOp checks it at every operator boundary, so a
	// cancel propagates promptly and all workers drain without leaking.
	Ctx context.Context
	// done caches Ctx.Done() for the execution's lifetime (set once by
	// Execute before any fan-out). The cancellation check runs per operator
	// and inside join inner loops; a non-blocking receive on a cached channel
	// is lock-free, where Ctx.Err() takes the context mutex every call.
	done <-chan struct{}
	// maxWorkers records the widest fan-out any operator of this execution
	// achieved (1 = ran entirely serial). Atomic: subplans evaluated inside
	// worker goroutines may themselves parallelize.
	maxWorkers atomic.Int32
	// tracer collects per-operator runtime statistics when enabled via
	// EnableTracing; see trace.go.
	tracer *tracer
}

// canceled reports the context's cancellation error, if any. The cancel
// *cause* is surfaced when one was set (context.WithCancelCause), so a kill
// through the live-operations registry propagates its typed error — for a
// plain cancellation, Cause returns the ordinary context error unchanged.
func (ctx *ExecContext) canceled() error {
	// Fast path: a receive on a nil channel never fires, so an execution
	// without a cancelable context (done unset, or Done() returned nil)
	// falls straight through the default arm.
	select {
	case <-ctx.done:
	default:
		return nil
	}
	if err := ctx.Ctx.Err(); err != nil {
		if cause := context.Cause(ctx.Ctx); cause != nil {
			return cause
		}
		return err
	}
	return nil
}

// noteWorkers records the fan-out one operator invocation used.
func (ctx *ExecContext) noteWorkers(n Node, workers int) {
	if workers > 1 {
		for {
			cur := ctx.maxWorkers.Load()
			if int32(workers) <= cur || ctx.maxWorkers.CompareAndSwap(cur, int32(workers)) {
				break
			}
		}
	}
	if ctx.tracer != nil {
		ctx.tracer.noteWorkers(n, workers)
	}
}

// MaxWorkers reports the widest operator fan-out of the execution: 1 means
// the query ran entirely serial (the catalog counts executions with
// MaxWorkers > 1 in sqlshare_parallel_queries_total).
func (ctx *ExecContext) MaxWorkers() int {
	if w := ctx.maxWorkers.Load(); w > 1 {
		return int(w)
	}
	return 1
}

// Compile builds a physical plan for q against the datasets visible through
// res. View references are expanded inline at compile time.
func Compile(q sqlparser.QueryExpr, res Resolver) (*Plan, error) {
	b := newBuilder(res)
	root, err := b.buildQuery(q, nil)
	if err != nil {
		return nil, err
	}
	estimate(root)
	annotateParallelism(root)
	annotateVectorized(root)
	return &Plan{
		Root:       root,
		Columns:    root.Props().Cols,
		RefColumns: b.referencedColumns(),
		Tables:     b.tableOrder,
		ExprOps:    b.exprOps,
	}, nil
}

// Execute runs the plan and returns its result. A nil ctx uses defaults.
func (p *Plan) Execute(ctx *ExecContext) (*Result, error) {
	if ctx == nil {
		ctx = &ExecContext{Now: time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)}
	}
	if ctx.MaxBytes > 0 && ctx.Progress == nil {
		// Memory accounting needs the progress counters; enforcing a budget
		// without a registry attached still works.
		ctx.Progress = &Progress{}
	}
	if ctx.Ctx != nil && ctx.done == nil {
		ctx.done = ctx.Ctx.Done()
	}
	rel, err := execNode(ctx, p.Root, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: rel.cols, Rows: rel.rows}, nil
}

// Query compiles and executes in one step.
func Query(sql string, res Resolver, ctx *ExecContext) (*Result, error) {
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	plan, err := Compile(q, res)
	if err != nil {
		return nil, err
	}
	return plan.Execute(ctx)
}

// TotalCost returns the estimated total subtree cost of the plan root —
// the quantity the paper's reuse estimator accumulates (§6.2).
func (p *Plan) TotalCost() float64 { return p.Root.Props().TotalCost }

// EstRowsTotal sums the compile-time cardinality estimates over every
// operator of the plan — the denominator of the live progress estimate: the
// registry divides Progress.Rows (actual rows produced so far) by this
// to approximate how far along an execution is, the same estimate-vs-actual
// pairing SHOWPLAN telemetry rests on.
func (p *Plan) EstRowsTotal() float64 {
	var total float64
	var walk func(n Node)
	walk = func(n Node) {
		total += n.Props().EstRows
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(p.Root)
	return total
}
