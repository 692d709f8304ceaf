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

// Actual is what an execution measured at one operator, summed over every
// time the operator ran: the run-time half of SQL Server's SHOWPLAN
// RunTimeInformation (§4), which the exported plan tree (internal/plan)
// carries beside each operator's estimates. Its tags are the keys of a plan
// node's `actual` block, the one place they are declared; Wall is written in
// whole nanoseconds.
type Actual struct {
	// Rows is the operator's output row count.
	Rows int64 `json:"rows"`
	// Executions counts how often the operator ran: 1 for the main tree,
	// once per outer row for correlated subplans, 0 if never reached.
	Executions int64 `json:"executions"`
	// Wall is the operator's wall time, inclusive of its children.
	Wall time.Duration `json:"wallNs"`
	// Bytes is the logical size of the operator's output (value widths
	// summed).
	Bytes int64 `json:"bytes"`
	// Workers is the widest fan-out of any execution: 1 serial, >1 when the
	// morsel scheduler spread the work, 0 for operators that report none.
	Workers int64 `json:"workers,omitempty"`
	// SegmentsScanned and SegmentsSkipped count the segments a vectorized
	// scan read and the ones its zone maps pruned before reading data.
	SegmentsScanned int64 `json:"segmentsScanned,omitempty"`
	SegmentsSkipped int64 `json:"segmentsSkipped,omitempty"`
}

// tracer collects per-node accumulators. The map is mutex-guarded: the
// main execution is single-goroutine per operator, but expression-level
// subplans execute through execOp from inside parallel workers, and the
// morsel scheduler reports per-operator worker counts concurrently.
type tracer struct {
	mu    sync.Mutex
	stats map[Node]*Actual
}

func newTracer() *tracer { return &tracer{stats: map[Node]*Actual{}} }

// note applies f to n's accumulator, creating it on first use.
func (t *tracer) note(n Node, f func(a *Actual)) {
	t.mu.Lock()
	acc := t.stats[n]
	if acc == nil {
		acc = &Actual{}
		t.stats[n] = acc
	}
	f(acc)
	t.mu.Unlock()
}

// Actual reports what the execution under ctx measured at operator n, failed
// and killed runs included; an operator the execution never reached reads
// zero.
func (ctx *ExecContext) Actual(n Node) Actual {
	t := ctx.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.stats[n]; a != nil {
		return *a
	}
	return Actual{}
}

// Segments reports the segments the execution's vectorized scans read and
// the segments their zone maps pruned, whether or not it succeeded.
func (ctx *ExecContext) Segments() (scanned, skipped int64) {
	t := ctx.tracer
	t.mu.Lock()
	for _, a := range t.stats {
		scanned += a.SegmentsScanned
		skipped += a.SegmentsSkipped
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
	ctx.tracer.note(n, func(a *Actual) {
		a.Executions++
		a.Wall += wall
		a.Rows += rows
		a.Bytes += bytes
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
