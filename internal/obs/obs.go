// Package obs is the stdlib-only observability layer of the SQLShare
// reproduction. The paper's workload study (§4–§6) was possible only
// because the production system emitted telemetry for every query —
// SHOWPLAN plans with estimated and actual row counts, per-query runtimes,
// and a request log. This package supplies the equivalent raw material for
// the reproduction: a concurrency-safe metrics registry (counters, gauges,
// fixed-bucket histograms, single- and multi-label counter vectors) with a
// Prometheus text-format exporter and an expvar-style JSON view, plus the
// named metric bundle (PlatformMetrics) the query history's fold, the
// catalog and the REST server report through.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

func jsonMarshal(v any) (string, error) {
	b, err := json.Marshal(v)
	return string(b), err
}

// metric is the common interface of everything a Registry holds.
type metric interface {
	metricName() string
	metricHelp() string
	metricType() string // "counter", "gauge", "histogram"
	// writeSamples appends the Prometheus sample lines (no HELP/TYPE
	// header) for this metric to b.
	writeSamples(b *strings.Builder)
	// expvarValue returns the metric's value in a JSON-marshalable shape
	// for the /debug/vars view.
	expvarValue() any
}

// desc is a metric's name and help text, the part every kind shares.
type desc struct{ name, help string }

func (d *desc) metricName() string { return d.name }
func (d *desc) metricHelp() string { return d.help }

// Registry is an ordered collection of metrics. All methods are safe for
// concurrent use; the returned metric handles are lock-free where possible.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]metric{}}
}

// register adds m, or returns the existing metric of the same name so
// repeated construction (e.g. in tests) is idempotent. A name collision
// across metric kinds panics: it is a programming error.
func (r *Registry) register(m metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[m.metricName()]; ok {
		if old.metricType() != m.metricType() {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)",
				m.metricName(), m.metricType(), old.metricType()))
		}
		return old
	}
	r.byName[m.metricName()] = m
	r.metrics = append(r.metrics, m)
	return m
}

// snapshot returns the registered metrics in registration order.
func (r *Registry) snapshot() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]metric(nil), r.metrics...)
}

// ---------------------------------------------------------------- counter

// Counter is a monotonically increasing integer metric.
type Counter struct {
	desc
	v atomic.Int64
}

// NewCounter registers (or returns the existing) counter with this name.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(&Counter{desc: desc{name, help}}).(*Counter)
}

// Add increments the counter by n (n < 0 is ignored: counters only grow).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricType() string { return "counter" }
func (c *Counter) expvarValue() any   { return c.Value() }
func (c *Counter) writeSamples(b *strings.Builder) {
	fmt.Fprintf(b, "%s %d\n", c.name, c.Value())
}

// ---------------------------------------------------------------- gauge

// Gauge is an integer metric that can go up and down.
type Gauge struct {
	desc
	v atomic.Int64
}

// NewGauge registers (or returns the existing) gauge with this name.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.register(&Gauge{desc: desc{name, help}}).(*Gauge)
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) metricType() string { return "gauge" }
func (g *Gauge) expvarValue() any   { return g.Value() }
func (g *Gauge) writeSamples(b *strings.Builder) {
	fmt.Fprintf(b, "%s %d\n", g.name, g.Value())
}

// ---------------------------------------------------------------- gaugefunc

// GaugeFunc is a gauge whose value is computed at scrape time by a callback
// — the natural shape for overload signals that already live elsewhere
// (pool occupancy, registry stats, queue depths): no background updater, no
// staleness, the scrape sees the live value.
type GaugeFunc struct {
	desc
	fn func() float64
}

// NewGaugeFunc registers a callback-backed gauge. If the name is already
// registered the existing metric is returned and fn is ignored (matching
// the idempotent construction of the other kinds).
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	return r.register(&GaugeFunc{desc: desc{name, help}, fn: fn}).(*GaugeFunc)
}

// Value invokes the callback.
func (g *GaugeFunc) Value() float64 { return g.fn() }

func (g *GaugeFunc) metricType() string { return "gauge" }
func (g *GaugeFunc) expvarValue() any   { return g.Value() }
func (g *GaugeFunc) writeSamples(b *strings.Builder) {
	fmt.Fprintf(b, "%s %s\n", g.name, formatFloat(g.Value()))
}

// ---------------------------------------------------------------- histogram

// DefLatencyBuckets are the default latency buckets, in seconds. They span
// 100µs to 10s, which covers this engine's in-memory query latencies as
// well as slow REST requests.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram of float64 observations. Buckets
// are cumulative upper bounds, Prometheus-style; an implicit +Inf bucket
// catches everything else. Observations are lock-free.
type Histogram struct {
	desc
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64  // float64 bits of the running sum
}

// NewHistogram registers (or returns the existing) histogram with this
// name, built by NewHistogram.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	h := NewHistogram(buckets)
	h.desc = desc{name, help}
	return r.register(h).(*Histogram)
}

// NewHistogram returns an unregistered histogram, for a reader that takes
// its quantiles itself and exports nothing. nil buckets uses
// DefLatencyBuckets. Buckets are sorted and deduplicated here so the
// text-format exposition always flushes them in ascending upper-bound order
// — callers need not pre-sort, and scrape output stays byte-stable for
// diffing.
func NewHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	dedup := bounds[:0]
	for i, b := range bounds {
		if i == 0 || b != dedup[len(dedup)-1] {
			dedup = append(dedup, b)
		}
	}
	bounds = dedup
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot returns the bucket upper bounds and the per-bucket (non-
// cumulative) counts, slices of equal length with the final bound being
// +Inf. The counts are a point-in-time copy; concurrent observations may
// land between reads of adjacent buckets, which is the usual
// Prometheus-style tolerance.
func (h *Histogram) Snapshot() (bounds []float64, counts []int64) {
	bounds = append(append([]float64(nil), h.bounds...), math.Inf(1))
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// distribution by linear interpolation within the containing bucket —
// the same estimate a Prometheus histogram_quantile() would give. It
// returns 0 when the histogram is empty; observations in the +Inf bucket
// clamp to the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	bounds, counts := h.Snapshot()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		if math.IsInf(bounds[i], 1) {
			// +Inf bucket: no upper edge to interpolate toward; clamp to
			// the largest finite bound.
			if i == 0 {
				return 0
			}
			return bounds[i-1]
		}
		lower := 0.0
		if i > 0 {
			lower = bounds[i-1]
		}
		upper := bounds[i]
		if c == 0 {
			return upper
		}
		return lower + (upper-lower)*(rank-float64(cum))/float64(c)
	}
	if len(bounds) > 1 {
		return bounds[len(bounds)-2]
	}
	return 0
}

func (h *Histogram) metricType() string { return "histogram" }

func (h *Histogram) writeSamples(b *strings.Builder) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", h.name, formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", h.name, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count %d\n", h.name, cum)
}

func (h *Histogram) expvarValue() any {
	return map[string]any{"count": h.Count(), "sum": h.Sum()}
}

// ---------------------------------------------------------------- vectors

// family is a family of counters or of gauges partitioned by label values;
// kind is the family's type in the exposition. CounterVec and GaugeVec are
// its two instances.
type family[T Counter | Gauge] struct {
	desc
	kind     string // "counter" or "gauge"
	labels   []string
	mu       sync.Mutex
	children map[string]*vecChild[T]
}

type vecChild[T Counter | Gauge] struct {
	values []string
	m      T
}

// CounterVec is a family of counters partitioned by label values.
type CounterVec = family[Counter]

// GaugeVec is a family of gauges partitioned by label values — used for
// info-style metrics (sqlshare_build_info).
type GaugeVec = family[Gauge]

// NewCounterVec registers (or returns the existing) counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return registerVec[Counter](r, "counter", name, help, labels)
}

// NewGaugeVec registers (or returns the existing) gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return registerVec[Gauge](r, "gauge", name, help, labels)
}

func registerVec[T Counter | Gauge](r *Registry, kind, name, help string, labels []string) *family[T] {
	v := &family[T]{desc: desc{name, help}, kind: kind, labels: labels, children: map[string]*vecChild[T]{}}
	return r.register(v).(*family[T])
}

// With returns the counter or gauge for the given label values (created on
// first use). The number of values must match the label names.
func (v *family[T]) With(values ...string) *T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	key := strings.Join(values, "\x1f")
	v.mu.Lock()
	defer v.mu.Unlock()
	ch, ok := v.children[key]
	if !ok {
		ch = &vecChild[T]{values: append([]string(nil), values...)}
		v.children[key] = ch
	}
	return &ch.m
}

// value reads a member: a counter and a gauge both hold one integer.
func (ch *vecChild[T]) value() int64 { return any(&ch.m).(interface{ Value() int64 }).Value() }

func (v *family[T]) sorted() []*vecChild[T] {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*vecChild[T], 0, len(v.children))
	for _, ch := range v.children {
		out = append(out, ch)
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].values, "\x1f") < strings.Join(out[j].values, "\x1f")
	})
	return out
}

func (v *family[T]) metricType() string { return v.kind }

func (v *family[T]) writeSamples(b *strings.Builder) {
	for _, ch := range v.sorted() {
		pairs := make([]string, len(v.labels))
		for i, l := range v.labels {
			pairs[i] = fmt.Sprintf("%s=%q", l, ch.values[i])
		}
		fmt.Fprintf(b, "%s{%s} %d\n", v.name, strings.Join(pairs, ","), ch.value())
	}
}

func (v *family[T]) expvarValue() any {
	out := map[string]int64{}
	for _, ch := range v.sorted() {
		out[strings.Join(ch.values, ",")] = ch.value()
	}
	return out
}

// CounterFuncVec is a one-label counter family whose samples are computed
// at scrape time by a callback — for counts another package keeps (the
// history's per-user accounts), exported without a second copy of them.
type CounterFuncVec struct {
	desc
	label string
	fn    func() map[string]float64
}

// NewCounterFuncVec registers a callback-backed counter family: fn returns
// the value per label value. Like NewGaugeFunc, a name already registered
// returns the existing metric and fn is ignored.
func (r *Registry) NewCounterFuncVec(name, help, label string, fn func() map[string]float64) *CounterFuncVec {
	return r.register(&CounterFuncVec{desc: desc{name, help}, label: label, fn: fn}).(*CounterFuncVec)
}

func (v *CounterFuncVec) metricType() string { return "counter" }
func (v *CounterFuncVec) expvarValue() any   { return v.fn() }

// writeSamples renders the samples in label-value order, a whole number as
// its digits (a count stays a count at any size) and anything else as
// formatFloat does.
func (v *CounterFuncVec) writeSamples(b *strings.Builder) {
	vals := v.fn()
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		val := formatFloat(vals[k])
		if f := vals[k]; f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			val = strconv.FormatInt(int64(f), 10)
		}
		fmt.Fprintf(b, "%s{%s=%q} %s\n", v.name, v.label, k, val)
	}
}

// ---------------------------------------------------------------- export

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(b *strings.Builder) {
	for _, m := range r.snapshot() {
		if help := m.metricHelp(); help != "" {
			fmt.Fprintf(b, "# HELP %s %s\n", m.metricName(), help)
		}
		fmt.Fprintf(b, "# TYPE %s %s\n", m.metricName(), m.metricType())
		m.writeSamples(b)
	}
}

// Handler serves the registry in Prometheus text format (for GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var b strings.Builder
		r.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
}

// ExpvarHandler serves the process-global expvar variables (memstats,
// cmdline, anything else published) merged with this registry's metrics as
// one JSON document — the /debug/vars view. It reimplements the expvar
// handler rather than publishing into the expvar global namespace so
// multiple registries (one per test server) never collide.
func (r *Registry) ExpvarHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{")
		first := true
		expvar.Do(func(kv expvar.KeyValue) {
			if !first {
				fmt.Fprintf(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n%q: %s", kv.Key, kv.Value.String())
		})
		for _, m := range r.snapshot() {
			if !first {
				fmt.Fprintf(w, ",")
			}
			first = false
			val, err := jsonMarshal(m.expvarValue())
			if err != nil {
				val = `"unmarshalable"`
			}
			fmt.Fprintf(w, "\n%q: %s", m.metricName(), val)
		}
		fmt.Fprintf(w, "\n}\n")
	})
}
