// parallel.go implements intra-query parallelism: a process-wide worker
// budget sized from GOMAXPROCS, a morsel scheduler that splits row ranges
// across workers, and the determinism rules that keep parallel results
// bit-identical to serial execution. The paper's workload is dominated by
// scans, equi-joins and aggregates over modest science tables (§5, Table 6);
// those are exactly the operators parallelized here. Each exec returns a
// whole *relation, so parallelism lives entirely inside an operator: inputs
// are split into row-range morsels (a filtered scan's are its segments),
// each task writes into its own output slot (rows or row indices), and slots
// are merged in task order, which reproduces the serial row order exactly.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Tuning knobs. Variables rather than constants so tests and benchmarks can
// tighten them (SetParallelTuning); production code never mutates them.
var (
	// parMorselRows is the scheduling granule: one task filters/projects
	// this many rows. Large enough that per-task overhead (one Env, one
	// output slice header, one atomic fetch) is noise, small enough that
	// work steals evenly across workers and cancellation checks stay prompt.
	parMorselRows = 2048
	// parMinRows is the fallback threshold: operators whose input is
	// smaller than this run serial (DOP falls back to 1) because fan-out
	// costs more than it saves on tiny inputs.
	parMinRows = 4096
)

// SetParallelTuning adjusts the morsel size and the serial-fallback
// threshold, returning the previous values so callers can restore them.
// Intended for tests (forcing parallel plans on tiny tables) and
// benchmarks; call only while no query is executing.
func SetParallelTuning(morselRows, minRows int) (prevMorsel, prevMin int) {
	prevMorsel, prevMin = parMorselRows, parMinRows
	if morselRows > 0 {
		parMorselRows = morselRows
	}
	if minRows > 0 {
		parMinRows = minRows
	}
	return prevMorsel, prevMin
}

// extraWorkersBusy meters the process-wide budget of *additional* worker
// goroutines across all concurrently executing queries. The querying
// goroutine itself is always worker zero and needs no token, so the budget
// — runtime.GOMAXPROCS(0), re-read on every acquire so tests that raise it
// take effect — only gates the extras. When the pool is saturated by other
// queries, an operator simply runs with fewer workers (possibly one); the
// result is identical either way, only the wall time changes.
var extraWorkersBusy atomic.Int64

// workersBusy counts the workers parallel operators occupy right now,
// across all queries: +n as an operator starts n workers (its caller
// included), -n as it finishes. The server reads it at scrape time
// (sqlshare_parallel_workers_busy).
var workersBusy atomic.Int64

// WorkersBusy reports how many workers parallel operators occupy right now.
func WorkersBusy() int64 { return workersBusy.Load() }

// acquireExtraWorkers grabs up to want extra-worker tokens, returning how
// many it got. It never blocks: a saturated pool grants zero and the
// operator degrades toward serial.
func acquireExtraWorkers(want int) int {
	if want <= 0 {
		return 0
	}
	budget := int64(runtime.GOMAXPROCS(0))
	granted := 0
	for granted < want {
		busy := extraWorkersBusy.Load()
		if busy >= budget {
			break
		}
		if extraWorkersBusy.CompareAndSwap(busy, busy+1) {
			granted++
		}
	}
	return granted
}

func releaseExtraWorkers(n int) {
	if n > 0 {
		extraWorkersBusy.Add(int64(-n))
	}
}

// PoolBusy reports the extra workers currently running across all queries
// (the quantity behind the worker-occupancy gauge, exposed for tests).
func PoolBusy() int64 { return extraWorkersBusy.Load() }

// morselCount returns how many morsels cover rows input rows.
func morselCount(rows int) int {
	if rows <= 0 {
		return 0
	}
	return (rows + parMorselRows - 1) / parMorselRows
}

// morselBounds returns the half-open row range of morsel t.
func morselBounds(t, rows int) (lo, hi int) {
	lo = t * parMorselRows
	hi = lo + parMorselRows
	if hi > rows {
		hi = rows
	}
	return lo, hi
}

// parallelRun executes fn(task) for every task in [0, tasks), fanning out
// over the workers the context's DOP and the global pool allow. It returns
// the worker count used (1 = ran serial on the calling goroutine).
//
// Contract: fn must be safe to call concurrently for distinct tasks and
// must write its result into a per-task slot; the caller merges slots in
// task order, which is what makes parallel output order identical to
// serial. rows is the operator's input cardinality, used for the
// serial-fallback gate. An error stops workers claiming new tasks; tasks
// already claimed run to completion, and the error of the lowest-numbered
// failed task is returned. Tasks are claimed in index order, so every task
// below it has run: it is the error the serial loop meets first, at every
// DOP. Every worker also checks the context's cancellation between tasks,
// so a ctx cancellation propagates within one morsel of work; it ranks
// after every task's error.
func parallelRun(ctx *ExecContext, n Node, rows, tasks int, fn func(task int) error) (int, error) {
	if tasks <= 0 {
		ctx.noteWorkers(n, 1)
		return 1, nil
	}
	workers := 1
	extra := 0
	if ctx.DOP > 1 && rows >= parMinRows && tasks > 1 {
		want := ctx.DOP
		if want > tasks {
			want = tasks
		}
		extra = acquireExtraWorkers(want - 1)
		workers = extra + 1
	}
	ctx.noteWorkers(n, workers)

	var (
		next    atomic.Int64
		stopped atomic.Bool
		mu      sync.Mutex
		errTask int
		taskErr error
	)
	fail := func(t int, err error) {
		mu.Lock()
		if taskErr == nil || t < errTask {
			errTask, taskErr = t, err
		}
		mu.Unlock()
		stopped.Store(true)
	}
	run := func() {
		for !stopped.Load() {
			if err := ctx.canceled(); err != nil {
				fail(tasks, err)
				return
			}
			t := int(next.Add(1)) - 1
			if t >= tasks {
				return
			}
			if err := fn(t); err != nil {
				fail(t, err)
				return
			}
		}
	}
	if workers == 1 {
		run()
		return 1, taskErr
	}

	workersBusy.Add(int64(workers))
	var wg sync.WaitGroup
	for w := 0; w < extra; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	releaseExtraWorkers(extra)
	workersBusy.Add(int64(-workers))
	return workers, taskErr
}

// concatSlots merges per-task output slices in task order. Returns nil for
// an empty result, matching what serial appends produce.
func concatSlots[T any](slots [][]T) []T {
	total := 0
	nonEmpty := 0
	last := -1
	for i, s := range slots {
		total += len(s)
		if len(s) > 0 {
			nonEmpty++
			last = i
		}
	}
	if total == 0 {
		return nil
	}
	if nonEmpty == 1 {
		return slots[last]
	}
	out := make([]T, 0, total)
	for _, s := range slots {
		out = append(out, s...)
	}
	return out
}

// annotateParallelism walks a compiled plan and marks the operators the
// executor is able to run with intra-query parallelism on an input at or
// above the serial-fallback threshold. The §4 extraction pipeline surfaces
// the flag as the "parallel" plan property — the reproduction's analogue of
// SHOWPLAN's Parallel="true" / exchange (Gather Streams) annotations.
func annotateParallelism(n Node) {
	for _, c := range n.Children() {
		annotateParallelism(c)
	}
	p := n.Props()
	inRows := func(i int) float64 {
		ch := n.Children()
		if i < len(ch) {
			return ch[i].Props().EstRows
		}
		return 0
	}
	eligible := false
	switch v := n.(type) {
	case *scanNode:
		eligible = len(v.preds) > 0 && float64(v.table.NumRows()) >= float64(parMinRows)
	case *filterNode, *sortNode, *streamAggregateNode, *windowProjectNode:
		eligible = inRows(0) >= float64(parMinRows)
	case *projectNode:
		eligible = v.props.PhysicalOp != "" && inRows(0) >= float64(parMinRows)
	case *hashMatchNode:
		eligible = inRows(0) >= float64(parMinRows) || inRows(1) >= float64(parMinRows)
	}
	p.Parallel = eligible
}
