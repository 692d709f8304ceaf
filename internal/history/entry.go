package history

import (
	"encoding/json"
	"math"
	"time"

	"sqlshare/internal/ops"
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
// (§4) and the one record every fold reads: the query path fills it, the
// ring holds it, the analyzer, the usage meter and the slow-query log read
// it, and a JSONL line is an encoding of it. Failed queries are entries
// too.
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
	// Plan and Meta are the Phase 1/Phase 2 extraction outputs; Plan.Trace
	// is the per-operator execution trace of a traced run. An entry decoded
	// from JSONL carries only what a line holds: Meta's operator counts and
	// column map, and a Plan that is nothing but its Trace.
	Plan *plan.QueryPlan
	Meta *plan.Metadata
	// Err records a failed execution.
	Err string
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
	// ResultBytes estimates the result payload width (sum of value widths),
	// the bytes dimension of per-user resource accounting.
	ResultBytes int64
}

// Failed reports whether the query ended in an error.
func (e *Entry) Failed() bool { return e.Err != "" }

// Phases times the five pipeline phases of one query: sql.parse, authorize,
// cache.probe, plan.compile and execute. The query path reads the clock once
// per phase boundary, traced or not, and the latency histograms, the JSONL
// line, the usage meter and a retained trace's phase spans are all derived
// from these slots, so they cannot disagree. Plan extraction runs between
// plan.compile and execute and belongs to neither.
type Phases struct {
	// Slot is indexed in pipeline order (see Of). Every slot up to Last was
	// entered; later ones are zero.
	Slot [5]PhaseTiming
	// Last is the phase the run ended in — where a failed run's error
	// belongs.
	Last ops.Phase
}

// PhaseTiming is one measured phase.
type PhaseTiming struct {
	Start time.Time
	Dur   time.Duration
}

// Of returns the slot of phase p (ops.PhaseParse … ops.PhaseExecute).
func (ph *Phases) Of(p ops.Phase) *PhaseTiming { return &ph.Slot[p-ops.PhaseParse] }

// jsonEntry is the JSONL line of an entry: the layout the history log has
// always had, so old and rotated logs replay. Durations are milliseconds;
// the phase slots, the plan tree and the worker count stay in memory.
type jsonEntry struct {
	ID            int       `json:"id"`
	Time          time.Time `json:"time"`
	User          string    `json:"user"`
	SQL           string    `json:"sql"`
	Datasets      []string  `json:"datasets,omitempty"`
	CompileMillis float64   `json:"compileMillis"`
	ExecuteMillis float64   `json:"executeMillis"`
	RuntimeMillis float64   `json:"runtimeMillis"`
	RowsReturned  int       `json:"rowsReturned"`
	Err           string    `json:"error,omitempty"`
	Digest        string    `json:"digest,omitempty"`
	// Operators and Columns are Meta's operator counts and column map,
	// omitted on a cache hit: no execution happened, and a replay must not
	// count the fill run's work twice.
	Operators   map[string]int      `json:"operators,omitempty"`
	Columns     map[string][]string `json:"columns,omitempty"`
	Trace       *plan.TraceNode     `json:"trace,omitempty"`
	CacheHit    bool                `json:"cacheHit,omitempty"`
	TraceID     string              `json:"traceId,omitempty"`
	ResultBytes int64               `json:"resultBytes,omitempty"`
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fromMillis inverts millis exactly for any duration a log line can hold.
func fromMillis(ms float64) time.Duration { return time.Duration(math.Round(ms * 1e6)) }

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
		CompileMillis: millis(e.Compile), ExecuteMillis: millis(e.Execute), RuntimeMillis: millis(e.Runtime),
		RowsReturned: e.RowsReturned, Err: e.Err, Digest: e.Digest,
		CacheHit: e.Cache == CacheHit, TraceID: e.TraceID, ResultBytes: e.ResultBytes,
	}
	if m := e.executed(); m != nil {
		j.Operators, j.Columns = m.OperatorCounts, m.Columns
	}
	if e.Plan != nil {
		j.Trace = e.Plan.Trace
	}
	return json.Marshal(&j)
}

// UnmarshalJSON decodes a JSONL line. A line does not say whether a run that
// executed probed the cache, so Cache is CacheHit or empty.
func (e *Entry) UnmarshalJSON(data []byte) error {
	var j jsonEntry
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*e = Entry{
		ID: j.ID, Time: j.Time, User: j.User, SQL: j.SQL, Datasets: j.Datasets,
		Compile: fromMillis(j.CompileMillis), Execute: fromMillis(j.ExecuteMillis), Runtime: fromMillis(j.RuntimeMillis),
		RowsReturned: j.RowsReturned, Err: j.Err, Digest: j.Digest,
		TraceID: j.TraceID, ResultBytes: j.ResultBytes,
	}
	if j.CacheHit {
		e.Cache = CacheHit
	}
	if j.Operators != nil || j.Columns != nil {
		e.Meta = &plan.Metadata{OperatorCounts: j.Operators, Columns: j.Columns}
	}
	if j.Trace != nil {
		e.Plan = &plan.QueryPlan{Trace: j.Trace}
	}
	return nil
}
