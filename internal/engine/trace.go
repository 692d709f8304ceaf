package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sqlshare/internal/storage"
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

// TraceNode is one operator of an execution trace: the plan-time estimates
// next to the run-time actuals, mirroring the EstimateRows/ActualRows
// pairing of SQL Server's SHOWPLAN XML RunTimeInformation that the paper's
// telemetry was built on (§4).
type TraceNode struct {
	PhysicalOp string
	LogicalOp  string
	Object     string
	// EstRows is the compile-time cardinality estimate; ActualRows is the
	// total rows the operator produced across all executions.
	EstRows    float64
	ActualRows int64
	// Executions counts how often the operator ran: 1 for the main tree,
	// once per outer row for correlated subplans, 0 if never reached.
	Executions int64
	// Wall is the operator's wall time, inclusive of its children.
	Wall time.Duration
	// ActualBytes estimates the memory footprint of the operator's output
	// (sum of value widths across all produced rows).
	ActualBytes int64
	// Workers is the widest intra-operator fan-out observed across the
	// operator's executions: 1 for operators that ran serial, >1 when the
	// morsel scheduler spread the work over that many workers.
	Workers int64
	// Vectorized reports whether the plan marked this operator for the
	// columnar path; SegsScanned/SegsSkipped count the segments a
	// vectorized scan touched vs pruned via zone maps.
	Vectorized  bool
	SegsScanned int64
	SegsSkipped int64
	Children    []*TraceNode
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

// noteWorkers merges one operator invocation's fan-out, keeping the max.
func (t *tracer) noteWorkers(n Node, workers int) {
	t.mu.Lock()
	acc := t.stats[n]
	if acc == nil {
		acc = &opAccum{}
		t.stats[n] = acc
	}
	if int64(workers) > acc.workers {
		acc.workers = int64(workers)
	}
	t.mu.Unlock()
}

// EnableTracing turns on per-operator instrumentation for executions using
// this context. After Execute, Plan.BuildTrace assembles the trace tree.
func (ctx *ExecContext) EnableTracing() {
	if ctx.tracer == nil {
		ctx.tracer = &tracer{stats: map[Node]*opAccum{}}
	}
}

// execNode runs n through execOp and materializes its output: the form the
// plan's root, the set operations, the subplan cache and the semi-probe keep.
func execNode(ctx *ExecContext, n Node, env *Env) (*relation, error) {
	rel, err := execOp(ctx, n, env)
	if err != nil {
		return nil, err
	}
	materialize(rel)
	return rel, nil
}

// execOp invokes one operator, recording trace statistics, publishing live
// progress counters and enforcing the MaxRows/MaxBytes runaway guards when
// any of them is enabled, and returns its output as the operator left it,
// lazy or built. Every recursive operator invocation goes through here; the
// fast path (no tracing, no progress, no limit) is a direct call.
func execOp(ctx *ExecContext, n Node, env *Env) (*relation, error) {
	if err := ctx.canceled(); err != nil {
		return nil, err
	}
	if ctx.tracer == nil && ctx.Progress == nil {
		if ctx.MaxRows <= 0 {
			return n.exec(ctx, env)
		}
		rel, err := n.exec(ctx, env)
		if err != nil {
			return nil, err
		}
		if err := ctx.checkRowLimit(n, rel.len()); err != nil {
			return nil, err
		}
		return rel, nil
	}
	if p := ctx.Progress; p != nil {
		p.op.Store(&n.Props().PhysicalOp)
	}
	var start time.Time
	if ctx.tracer != nil {
		start = time.Now()
	}
	rel, err := n.exec(ctx, env)
	var rows, bytes int64
	if rel != nil {
		rows = int64(rel.len())
		bytes = relationBytes(rel)
	}
	if t := ctx.tracer; t != nil {
		elapsed := time.Since(start)
		t.mu.Lock()
		acc := t.stats[n]
		if acc == nil {
			acc = &opAccum{}
			t.stats[n] = acc
		}
		acc.execs++
		acc.wall += elapsed
		acc.rows += rows
		acc.bytes += bytes
		t.mu.Unlock()
	}
	if err != nil {
		return nil, err
	}
	if p := ctx.Progress; p != nil {
		p.Ops.Add(1)
		p.Rows.Add(rows)
		p.Bytes.Add(bytes)
		// Charge the output's logical size once per relation: pass-through
		// operators (Segment, Window Spool) forward their child's relation,
		// which is already charged. The consuming parent releases the charge
		// (releaseRel) when it is done with the input; the root result stays
		// charged until the execution finishes.
		if rel.memBytes == 0 && bytes > 0 {
			rel.memBytes = bytes
			if err := ctx.reserve(n, bytes); err != nil {
				return nil, err
			}
		}
	}
	if err := ctx.checkRowLimit(n, rel.len()); err != nil {
		return nil, err
	}
	return rel, nil
}

// accounting reports whether per-query memory accounting is active — the
// gate operators use before computing byte estimates for their working
// state (key vectors, build tables, argument vectors).
func (ctx *ExecContext) accounting() bool { return ctx.Progress != nil }

// measuring reports whether execOp will ask for operator output sizes (a
// tracer or live progress is attached) — the gate for operators that can
// size their output more cheaply than a walk over its cells.
func (ctx *ExecContext) measuring() bool { return ctx.tracer != nil || ctx.Progress != nil }

// reserve charges n bytes of working memory against the execution's live
// estimate, failing with ErrMemLimit when a budget is set and exceeded.
// The failed reservation stays charged — the execution is aborting and the
// whole accumulator is discarded with it.
func (ctx *ExecContext) reserve(n Node, bytes int64) error {
	p := ctx.Progress
	if p == nil || bytes <= 0 {
		return nil
	}
	cur := p.reserve(bytes)
	if ctx.MaxBytes > 0 && cur > ctx.MaxBytes {
		return fmt.Errorf("%w: %s holds ~%d bytes in flight (limit %d)",
			ErrMemLimit, opLabel(n), cur, ctx.MaxBytes)
	}
	return nil
}

// release returns n bytes of working memory to the budget.
func (ctx *ExecContext) release(bytes int64) {
	if p := ctx.Progress; p != nil && bytes > 0 {
		p.Mem.Add(-bytes)
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
// built, whether or not they are — walking its cells only if no operator has
// measured them yet: pass-through operators hand on a relation already
// sized, a sort's output is a permutation of a sized input, an unfiltered
// scan reads the segment statistics, and a hash join measures its output as
// it charges it.
func relationBytes(rel *relation) int64 {
	if !rel.sized {
		rd := rel.reader()
		var total int64
		for i, n := 0, rel.len(); i < n; i++ {
			total += rowBytes(rd.row(i))
		}
		rel.setBytes(total)
	}
	return rel.bytes
}

// rowsBytes estimates the footprint of a row batch (sum of value widths) —
// the same measuring stick SizeBytes gives the result cache and the
// per-user usage meter.
func rowsBytes(rows []storage.Row) int64 {
	var total int64
	for _, r := range rows {
		total += rowBytes(r)
	}
	return total
}

// BuildTrace assembles the per-operator trace tree for p from a traced
// execution under ctx. It returns nil if tracing was not enabled.
// Operators the execution never reached report zero executions.
func (p *Plan) BuildTrace(ctx *ExecContext) *TraceNode {
	if ctx == nil || ctx.tracer == nil {
		return nil
	}
	return buildTraceNode(p.Root, ctx.tracer)
}

func buildTraceNode(n Node, t *tracer) *TraceNode {
	props := n.Props()
	tn := &TraceNode{
		PhysicalOp: props.PhysicalOp,
		LogicalOp:  props.LogicalOp,
		Object:     props.Object,
		EstRows:    props.EstRows,
		Vectorized: props.Vectorized,
	}
	t.mu.Lock()
	acc := t.stats[n]
	t.mu.Unlock()
	if acc != nil {
		tn.ActualRows = acc.rows
		tn.Executions = acc.execs
		tn.Wall = acc.wall
		tn.ActualBytes = acc.bytes
		tn.Workers = acc.workers
		tn.SegsScanned = acc.segsScanned
		tn.SegsSkipped = acc.segsSkipped
	}
	for _, c := range n.Children() {
		tn.Children = append(tn.Children, buildTraceNode(c, t))
	}
	return tn
}
