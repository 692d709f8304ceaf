package history

import (
	"encoding/json"
	"math"
	"time"

	"sqlshare/internal/plan"
)

// Cache states recorded on Entry.Cache and surfaced in EXPLAIN ANALYZE
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

// Entry is one finished query — the unit of the released workload corpus
// (§4) and the one record every fold reads: the query path fills it and
// hands it to History.Record, and nothing else; the ring holds it, the
// analyzer (its aggregates and usage accounts), the platform metrics and the
// slow-query log read it, and a JSONL line is an encoding of it. Failed
// queries are entries too.
type Entry struct {
	// ID is the query's position in the log, assigned by History.Record:
	// dense, starting at 1, in ring order.
	ID   int
	User string
	SQL  string
	Time time.Time
	// Runtime is the measured wall-clock time of the whole query path.
	Runtime time.Duration
	// Datasets lists the dataset full names the query referenced directly.
	Datasets []string
	// Plan and Meta are the Phase 1/Phase 2 extraction outputs. Plan's
	// tree carries the run's actuals on its nodes (none for a cache hit,
	// which executed nothing, or for a run that failed before executing).
	// An entry decoded from JSONL has the line's plan document and the Meta
	// that plan.Extract derives from it; a cache hit's line has neither.
	Plan *plan.QueryPlan
	Meta *plan.Metadata
	// legacy is set on an entry decoded from a line with no plan document
	// and durations in milliseconds (see jsonEntry), which it re-encodes
	// in: Meta holds only operator counts and the column map, and Plan's
	// tree only what the line's trace carried.
	legacy *legacyLine
	// Err records a failed execution.
	Err string
	// Aborted marks a failed run the row-limit or memory-limit guard
	// stopped (engine.ErrRowLimit, ErrMemLimit). A JSONL line does not carry
	// it.
	Aborted bool
	// RowsReturned is the result cardinality of a successful run.
	RowsReturned int
	// Phases is the one timing of the run; Compile and Execute are sums of
	// its slots (parse through plan.compile, and execute), so every sink
	// that reports a latency split reports these numbers.
	Phases  Phases
	Compile time.Duration
	Execute time.Duration
	// Workers is the largest worker count any operator actually used (1 =
	// the whole query ran serial, 0 = nothing executed).
	Workers int
	// Digest is the stable hash of the normalized operator tree
	// (plan.QueryPlan.Digest); statements that differ only in literals
	// share one. Empty when the run never reached a plan.
	Digest string
	// Cache records how the result cache participated in this execution:
	// CacheHit, CacheMiss or CacheBypass.
	Cache string
	// TraceID links this entry to the request span tree in the trace store,
	// when the execution ran inside an active trace.
	TraceID string
	// ResultBytes is the result's logical size, its cells' value widths
	// summed (engine.Result.Bytes): the bytes dimension of per-user resource
	// accounting and what the result cache charges.
	ResultBytes int64
}

// Failed reports whether the query ended in an error.
func (e *Entry) Failed() bool { return e.Err != "" }

// Phases times the five pipeline phases of one query: sql.parse, authorize,
// cache.probe, plan.compile and execute. The query path reads the clock once
// per phase boundary, traced or not, and the latency histograms, the JSONL
// line, the usage accounts and a retained trace's phase spans are all derived
// from these slots, so they cannot disagree. Plan extraction runs between
// plan.compile and execute and belongs to neither.
type Phases struct {
	// Slot is indexed in pipeline order (see Of). Every slot up to Last was
	// entered; later ones are zero.
	Slot [5]PhaseTiming
	// Last is the phase the run ended in — where a failed run's error
	// belongs.
	Last Phase
}

// PhaseTiming is one measured phase.
type PhaseTiming struct {
	Start time.Time
	Dur   time.Duration
}

// Of returns the slot of phase p (PhaseParse … PhaseExecute).
func (ph *Phases) Of(p Phase) *PhaseTiming { return &ph.Slot[p-PhaseParse] }

// Phase is one lifecycle stage of a query. Phases are small integers, so a
// running query publishes one with a single atomic store (jobs.Job.SetPhase);
// the running-queries listing renders the name. PhaseQueued is the stage
// from submit until the catalog enters parse; it has no slot in Phases.
type Phase int32

const (
	PhaseQueued Phase = iota
	PhaseParse
	PhaseAuthorize
	PhaseCacheProbe
	PhasePlanCompile
	PhaseExecute
)

var phaseNames = [...]string{
	"queued", "parse", "authorize", "cache.probe", "plan.compile", "execute",
}

// String renders the phase name shown in /api/queries/running.
func (p Phase) String() string {
	if p < 0 || int(p) >= len(phaseNames) {
		return "unknown"
	}
	return phaseNames[p]
}

// jsonEntry is the JSONL line of an entry, the one on-disk record of a
// finished query: the history log and a corpus release (corpusio) both
// write it. Durations are whole nanoseconds (compileNs, executeNs,
// runtimeNs); the phase slots and the worker count stay in memory. Plan is
// the plan document the run compiled (plan.QueryPlan's JSON without its
// query, which is the line's sql: Listing 1, each node with its `actual`
// block once the run executed), from which a decoder rebuilds Meta; a cache
// hit compiled nothing and carries none, so a replay does not count the fill
// run's work twice. An entry with a Meta and no plan writes Meta's operator
// counts and column map.
//
// Two older layouts still decode. A line whose plan document also carries a
// `trace` (the actuals in the trace form) and whose durations are float
// milliseconds (compileMillis, executeMillis, runtimeMillis) decodes to the
// same entry as its current-layout line, and re-encodes as that. A line with
// no plan document and durations in milliseconds — the layout before the
// plan document, with `operators`, `columns` and `trace` at the top, or a
// cache hit or an uncompiled run logged in either older layout — re-encodes
// in that layout, its trace written back as it was read.
type jsonEntry struct {
	ID            int                 `json:"id"`
	Time          time.Time           `json:"time"`
	User          string              `json:"user"`
	SQL           string              `json:"sql"`
	Datasets      []string            `json:"datasets,omitempty"`
	CompileNs     *time.Duration      `json:"compileNs,omitempty"`
	ExecuteNs     *time.Duration      `json:"executeNs,omitempty"`
	RuntimeNs     *time.Duration      `json:"runtimeNs,omitempty"`
	CompileMillis *float64            `json:"compileMillis,omitempty"`
	ExecuteMillis *float64            `json:"executeMillis,omitempty"`
	RuntimeMillis *float64            `json:"runtimeMillis,omitempty"`
	RowsReturned  int                 `json:"rowsReturned"`
	Err           string              `json:"error,omitempty"`
	Digest        string              `json:"digest,omitempty"`
	Plan          *plan.QueryPlan     `json:"plan,omitempty"`
	Operators     map[string]int      `json:"operators,omitempty"`
	Columns       map[string][]string `json:"columns,omitempty"`
	Trace         json.RawMessage     `json:"trace,omitempty"`
	CacheHit      bool                `json:"cacheHit,omitempty"`
	TraceID       string              `json:"traceId,omitempty"`
	ResultBytes   int64               `json:"resultBytes,omitempty"`
}

// legacyLine is what an entry decoded from a line with no plan document and
// milliseconds keeps to write that line back: its trace, as read (nil when
// the line had none). Nothing writes the trace form.
type legacyLine struct{ trace json.RawMessage }

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fromMillis returns the duration a line's milliseconds stand for: of the
// nanosecond counts next to ms·1e6, one that millis writes back as ms,
// where there is one. A float64 cannot hold every nanosecond count past
// 2^53 ns (about 104 days), and ms·1e6 can round a nanosecond away from
// 2^51 ns (about 26 days) on, so the nearest count alone may not write
// back as ms; with this choice a line in milliseconds is a fixed point of
// its first re-encode.
func fromMillis(ms float64) time.Duration {
	n := time.Duration(math.Round(ms * 1e6))
	for _, d := range [...]time.Duration{n, n - 1, n + 1} {
		if millis(d) == ms {
			return d
		}
	}
	return n
}

// duration decodes one of a line's durations, given in nanoseconds or, in
// the older layouts, in milliseconds.
func duration(ns *time.Duration, ms *float64) time.Duration {
	switch {
	case ns != nil:
		return *ns
	case ms != nil:
		return fromMillis(*ms)
	}
	return 0
}

// executed returns the plan metadata of the work this entry itself did: nil
// for a cache hit, whose Meta describes the fill run.
func (e *Entry) executed() *plan.Metadata {
	if e.Cache == CacheHit {
		return nil
	}
	return e.Meta
}

// MarshalJSON encodes the entry as its JSONL line.
func (e *Entry) MarshalJSON() ([]byte, error) {
	j := jsonEntry{
		ID: e.ID, Time: e.Time, User: e.User, SQL: e.SQL, Datasets: e.Datasets,
		RowsReturned: e.RowsReturned, Err: e.Err, Digest: e.Digest,
		CacheHit: e.Cache == CacheHit, TraceID: e.TraceID, ResultBytes: e.ResultBytes,
	}
	if e.legacy != nil {
		c, x, r := millis(e.Compile), millis(e.Execute), millis(e.Runtime)
		j.CompileMillis, j.ExecuteMillis, j.RuntimeMillis, j.Trace = &c, &x, &r, e.legacy.trace
	} else {
		j.CompileNs, j.ExecuteNs, j.RuntimeNs = &e.Compile, &e.Execute, &e.Runtime
	}
	switch {
	case e.Cache == CacheHit:
	case e.Plan != nil && e.legacy == nil:
		doc := *e.Plan
		doc.Query = ""
		j.Plan = &doc
	case e.Meta != nil:
		j.Operators, j.Columns = e.Meta.OperatorCounts, e.Meta.Columns
	}
	return json.Marshal(&j)
}

// UnmarshalJSON decodes a JSONL line. A line does not say whether a run that
// executed probed the cache, so Cache is CacheHit or empty. A cache-hit
// line's plan keys, if any, are not the entry's own work and are dropped.
func (e *Entry) UnmarshalJSON(data []byte) error {
	var j jsonEntry
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*e = Entry{
		ID: j.ID, Time: j.Time, User: j.User, SQL: j.SQL, Datasets: j.Datasets,
		Compile: duration(j.CompileNs, j.CompileMillis), Execute: duration(j.ExecuteNs, j.ExecuteMillis),
		Runtime: duration(j.RuntimeNs, j.RuntimeMillis), RowsReturned: j.RowsReturned, Err: j.Err, Digest: j.Digest,
		TraceID: j.TraceID, ResultBytes: j.ResultBytes,
	}
	if j.Plan == nil && j.RuntimeNs == nil && j.RuntimeMillis != nil {
		// The current layout cannot say what this line says: it has no
		// plan document to carry a trace, and its unit is milliseconds.
		e.legacy = &legacyLine{}
	}
	switch {
	case j.CacheHit:
		e.Cache = CacheHit
	case j.Plan != nil:
		j.Plan.Query = j.SQL
		e.Plan, e.Meta = j.Plan, plan.Extract(j.SQL, j.Plan)
	default:
		if len(j.Operators) > 0 || len(j.Columns) > 0 {
			e.Meta = &plan.Metadata{OperatorCounts: j.Operators, Columns: j.Columns}
		}
		if e.legacy == nil || j.Trace == nil {
			break
		}
		var trace plan.TraceJSON
		if err := json.Unmarshal(j.Trace, &trace); err != nil {
			return err
		}
		if trace.Root != nil {
			e.Plan, e.legacy.trace = &plan.QueryPlan{Root: trace.Root}, j.Trace
		}
	}
	return nil
}
