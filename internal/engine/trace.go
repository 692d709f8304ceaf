package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrRowLimit is the sentinel returned when an execution exceeds
// ExecContext.MaxRows. Callers use errors.Is to map it to a distinct
// failure class (the REST server maps it to HTTP 422 and counts it in the
// queries_aborted_total metric).
var ErrRowLimit = errors.New("engine: row limit exceeded")

// ErrMemLimit is the sentinel returned when an execution's reserved
// in-flight memory estimate exceeds ExecContext.MaxBytes — the memory
// dimension of the runaway guard. As with ErrRowLimit, callers use
// errors.Is to map it to a distinct failure class (the REST server maps it
// to HTTP 422 and counts it in queries_aborted_total).
var ErrMemLimit = errors.New("engine: memory limit exceeded")

// TraceNode is one operator of an execution trace, in the form every
// reader exports: the plan-time estimates next to the run-time actuals,
// mirroring the EstimateRows/ActualRows pairing of SQL Server's SHOWPLAN XML
// RunTimeInformation that the paper's telemetry was built on (§4).
type TraceNode struct {
	PhysicalOp string `json:"physicalOp"`
	LogicalOp  string `json:"logicalOp,omitempty"`
	Object     string `json:"object,omitempty"`
	// EstRows is the compile-time cardinality estimate; ActualRows is the
	// total rows the operator produced across all executions.
	EstRows    float64 `json:"estimateRows"`
	ActualRows int64   `json:"actualRows"`
	// Executions counts how often the operator ran: 1 for the main tree,
	// once per outer row for correlated subplans, 0 if never reached.
	Executions int64 `json:"executions"`
	// WallMillis is the operator's wall time, inclusive of its children.
	WallMillis float64 `json:"wallMillis"`
	// ActualBytes is the logical size of the operator's output (value
	// widths summed across all produced rows).
	ActualBytes int64 `json:"actualBytes"`
	// Workers is the widest fan-out observed across the operator's
	// executions: 1 for operators that ran serial, >1 when the morsel
	// scheduler spread the work over that many workers, 0 for operators
	// that report no worker statistics.
	Workers int64 `json:"workers,omitempty"`
	// Vectorized reports whether the plan marked this operator for the
	// columnar path; SegmentsScanned/SegmentsSkipped count the segments a
	// vectorized scan touched vs pruned via zone maps before reading data.
	Vectorized      bool         `json:"vectorized,omitempty"`
	SegmentsScanned int64        `json:"segmentsScanned,omitempty"`
	SegmentsSkipped int64        `json:"segmentsSkipped,omitempty"`
	Children        []*TraceNode `json:"children"`
}

// WalkTrace visits every operator of the trace tree in pre-order.
func (t *TraceNode) WalkTrace(f func(*TraceNode)) {
	if t == nil {
		return
	}
	f(t)
	for _, c := range t.Children {
		c.WalkTrace(f)
	}
}

// opAccum accumulates run-time stats for one plan node.
type opAccum struct {
	execs       int64
	rows        int64
	bytes       int64
	wall        time.Duration
	workers     int64
	segsScanned int64
	segsSkipped int64
}

// tracer collects per-node accumulators. The map is mutex-guarded: the
// main execution is single-goroutine per operator, but expression-level
// subplans execute through execOp from inside parallel workers, and the
// morsel scheduler reports per-operator worker counts concurrently.
type tracer struct {
	mu    sync.Mutex
	stats map[Node]*opAccum
}

func newTracer() *tracer { return &tracer{stats: map[Node]*opAccum{}} }

// note applies f to n's accumulator, creating it on first use.
func (t *tracer) note(n Node, f func(a *opAccum)) {
	t.mu.Lock()
	acc := t.stats[n]
	if acc == nil {
		acc = &opAccum{}
		t.stats[n] = acc
	}
	f(acc)
	t.mu.Unlock()
}

// MaxWorkers reports the widest operator fan-out of the execution: 1 means
// the query ran entirely serial (the catalog counts executions with
// MaxWorkers > 1 in sqlshare_parallel_queries_total).
func (ctx *ExecContext) MaxWorkers() int {
	w := int64(1)
	t := ctx.tracer
	t.mu.Lock()
	for _, a := range t.stats {
		w = max(w, a.workers)
	}
	t.mu.Unlock()
	return int(w)
}

// Segments reports the segments the execution's vectorized scans read and
// the segments their zone maps pruned, whether or not it succeeded.
func (ctx *ExecContext) Segments() (scanned, skipped int64) {
	t := ctx.tracer
	t.mu.Lock()
	for _, a := range t.stats {
		scanned += a.segsScanned
		skipped += a.segsSkipped
	}
	t.mu.Unlock()
	return scanned, skipped
}

// execNode runs n through execOp and materializes its output: the form the
// plan's root, INTERSECT and EXCEPT, and the uncorrelated subquery cache
// (which the semi-probe reads) keep.
func execNode(ctx *ExecContext, n Node, env *Env) (*relation, error) {
	rel, err := execOp(ctx, n, env)
	if err != nil {
		return nil, err
	}
	materialize(rel)
	return rel, nil
}

// execOp invokes one operator and returns its output as the operator left
// it, lazy or built. Every operator invocation goes through here and is
// measured: the output is sized (relationBytes) and noted, charged against
// the memory estimate and held to MaxRows.
func execOp(ctx *ExecContext, n Node, env *Env) (*relation, error) {
	if err := ctx.canceled(); err != nil {
		return nil, err
	}
	ctx.Progress.enter(n)
	start := time.Now()
	rel, err := n.exec(ctx, env)
	var rows, bytes int64
	if rel != nil {
		rows, bytes = int64(rel.len()), relationBytes(rel)
	}
	ctx.noteOp(n, rows, bytes, time.Since(start))
	if err != nil {
		return nil, err
	}
	// Charge the output once per relation: a pass-through operator forwards
	// a relation already charged, and a hash join charges its output as it
	// probes. The consuming parent releases the charge (releaseRel); the
	// root result stays charged until the execution finishes.
	if rel.memBytes == 0 && bytes > 0 {
		rel.memBytes = bytes
		if err := ctx.reserve(n, bytes); err != nil {
			return nil, err
		}
	}
	if err := ctx.checkRowLimit(n, rel.len()); err != nil {
		return nil, err
	}
	return rel, nil
}

// noteOp records one execution of n that produced rows rows of bytes
// logical size: on the live progress, and with its wall time on the
// operator's accumulator.
func (ctx *ExecContext) noteOp(n Node, rows, bytes int64, wall time.Duration) {
	ctx.Progress.Rows.Add(rows)
	ctx.Progress.Bytes.Add(bytes)
	ctx.tracer.note(n, func(a *opAccum) {
		a.execs++
		a.wall += wall
		a.rows += rows
		a.bytes += bytes
	})
}

// reserve charges n bytes of working memory against the execution's live
// estimate, failing with ErrMemLimit when a budget is set and exceeded.
// The failed reservation stays charged — the execution is aborting and the
// whole accumulator is discarded with it.
func (ctx *ExecContext) reserve(n Node, bytes int64) error {
	if bytes <= 0 {
		return nil
	}
	cur := ctx.Progress.reserve(bytes)
	if ctx.MaxBytes > 0 && cur > ctx.MaxBytes {
		return fmt.Errorf("%w: %s holds ~%d bytes in flight (limit %d)",
			ErrMemLimit, opLabel(n), cur, ctx.MaxBytes)
	}
	return nil
}

// release returns n bytes of working memory to the budget.
func (ctx *ExecContext) release(bytes int64) {
	if bytes > 0 {
		ctx.Progress.Mem.Add(-bytes)
	}
}

// releaseRel releases a consumed input relation's materialization charge.
// Idempotent per relation (the charge moves to zero), which makes
// pass-through chains — where parent and child share one relation — safe:
// whoever consumes the shared relation releases it exactly once.
func (ctx *ExecContext) releaseRel(rel *relation) {
	if rel == nil || rel.memBytes == 0 {
		return
	}
	ctx.release(rel.memBytes)
	rel.memBytes = 0
}

// checkRowLimit enforces MaxRows against one operator's output. Applying
// the limit to every intermediate result (not just the final one) is what
// makes it a runaway guard: a cross join that explodes mid-plan aborts
// before it consumes the machine.
func (ctx *ExecContext) checkRowLimit(n Node, rows int) error {
	if ctx.MaxRows > 0 && rows > ctx.MaxRows {
		return fmt.Errorf("%w: %s produced %d rows (limit %d)",
			ErrRowLimit, opLabel(n), rows, ctx.MaxRows)
	}
	return nil
}

func opLabel(n Node) string {
	p := n.Props()
	if p.PhysicalOp != "" {
		return p.PhysicalOp
	}
	return "operator"
}

// relationBytes is a relation's logical size — what its rows would hold
// built, whether or not they are — measured (relation.measure, from the
// segments behind its sources) only if no operator has yet: pass-through
// operators hand on a relation already sized, a sort's or a top's output
// that keeps every input row is a permutation of a sized input, and a hash
// join sizes its output as it charges it.
func relationBytes(rel *relation) int64 {
	if !rel.sized {
		rel.setBytes(rel.measure(nil))
	}
	return rel.bytes
}

// BuildTrace assembles the per-operator trace tree for p from its
// execution under ctx, failed and killed runs included. Operators the
// execution never reached report zero executions. Operators with an empty
// PhysicalOp (trivial projections, invisible to plan extraction) are
// spliced out, so the tree aligns node for node with the extracted plan;
// their wall time is already inside their parent's.
func (p *Plan) BuildTrace(ctx *ExecContext) *TraceNode {
	return buildTraceNode(p.Root, ctx.tracer)
}

func buildTraceNode(n Node, t *tracer) *TraceNode {
	children := []*TraceNode{}
	for _, c := range n.Children() {
		cn := buildTraceNode(c, t)
		if cn.PhysicalOp == "" {
			children = append(children, cn.Children...)
			continue
		}
		children = append(children, cn)
	}
	props := n.Props()
	if props.PhysicalOp == "" && len(children) == 1 {
		return children[0]
	}
	tn := &TraceNode{
		PhysicalOp: props.PhysicalOp,
		LogicalOp:  props.LogicalOp,
		Object:     props.Object,
		EstRows:    props.EstRows,
		Vectorized: props.Vectorized,
		Children:   children,
	}
	t.mu.Lock()
	acc := t.stats[n]
	t.mu.Unlock()
	if acc != nil {
		tn.ActualRows = acc.rows
		tn.Executions = acc.execs
		tn.WallMillis = float64(acc.wall.Nanoseconds()) / 1e6
		tn.ActualBytes = acc.bytes
		tn.Workers = acc.workers
		tn.SegmentsScanned = acc.segsScanned
		tn.SegmentsSkipped = acc.segsSkipped
	}
	return tn
}
