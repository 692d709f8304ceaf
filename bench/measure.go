package main

import (
	"context"
	"fmt"
	"os"
	"time"
)

// metric is one reported number.
type metric struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Workload string  `json:"workload"`
	Value    float64 `json:"value"`
	// Spread is the quartile distance of the per-round values as a share of
	// their median; 0 for a number measured once per run.
	Spread float64 `json:"spread"`
	// Samples is the number of observations behind Value in a typical
	// round: the population of a percentile, or the ops behind a rate.
	Samples int `json:"samples"`
	// Rounds holds the per-round values Value is the median of.
	Rounds []float64 `json:"rounds,omitempty"`
}

// roundStats is everything observed while one round ran.
type roundStats struct {
	samples    []sample
	attempted  int
	wall       time.Duration
	serverCPU  float64 // seconds of user+system time
	clientCPU  float64
	steal      float64
	prom       promSample // server counters, end − start
	promEnd    promSample // the scrape at the end of the round, for gauges
	backlogMax int
}

func (rs *roundStats) ok() int {
	n := 0
	for i := range rs.samples {
		if rs.samples[i].err == nil {
			n++
		}
	}
	return n
}

// latencies returns the latency in ms of every successful sample keep
// accepts.
func (rs *roundStats) latencies(keep func(*sample) bool) []float64 {
	var out []float64
	for i := range rs.samples {
		s := &rs.samples[i]
		if s.err == nil && keep(s) {
			out = append(out, s.ms())
		}
	}
	return out
}

func isQuery(s *sample) bool { return s.op.Kind == opQuery }
func isWrite(s *sample) bool { return s.op.isWrite() }

// measureRound runs round r of w against in and records the server's CPU,
// the generator's CPU, the host's steal and the server's own counters
// around it.
//
// limit bounds the round: the op counts were tuned to fill a fifth of the
// run's nominal length, and on a host so slow that a round would take more
// than limit the ops not yet started are dropped, so that a run always ends.
func measureRound(ctx context.Context, in *instance, w *workload, r int, limit time.Duration) (*roundStats, error) {
	rs := &roundStats{}
	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	srv0, err := readProcCPU(in.proc.pid())
	if err != nil {
		return nil, err
	}
	cli0, err := readProcCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	prom0, err := in.client.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape before round %d: %w", r, err)
	}
	start := time.Now()
	if w.Open {
		rs.samples, rs.backlogMax = runOpen(ctx, in.client, w.Rounds[r][0], start.Add(limit))
	} else {
		rs.samples = runClosed(ctx, in.client, w.Rounds[r], start.Add(limit))
	}
	rs.wall = time.Since(start)
	rs.attempted = len(rs.samples)
	prom1, err := in.client.scrape(ctx)
	if err != nil {
		return nil, fmt.Errorf("scrape after round %d: %w", r, err)
	}
	srv1, err := readProcCPU(in.proc.pid())
	if err != nil {
		return nil, err
	}
	cli1, err := readProcCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	rs.serverCPU, rs.clientCPU = srv1-srv0, cli1-cli0
	rs.steal = stealShare(host0, host1)
	rs.prom, rs.promEnd = prom1.delta(prom0), prom1
	return rs, nil
}

// phase is the outcome of a workload's measured phase.
type phase struct {
	warm      []sample      // the warm-up's samples; all succeeded
	rounds    []*roundStats // the rounds that count
	executed  []int         // index into workload.Rounds of every round run, in order
	all       []*roundStats // stats of every round run, parallel to executed
	rerun     int           // rounds measured again because of steal
	rssSetup  float64       // server RSS after set-up and warm-up, MiB
	rssEnd    float64
	rssPeak   float64
	attempted int
	failed    int
}

// runPhase warms the server up and measures the workload's rounds. A round
// during which the hypervisor withheld more than maxStealShare of the CPU
// is measured again on a spare round, while spares last.
func runPhase(ctx context.Context, in *instance, w *workload, limit time.Duration, want int) (*phase, error) {
	ph, err := warmUp(ctx, in, w, limit)
	if err != nil {
		return nil, err
	}
	for r := 0; r < len(w.Rounds) && len(ph.rounds) < want; r++ {
		rs, err := measureRound(ctx, in, w, r, limit)
		if err != nil {
			return nil, err
		}
		ph.attempted += rs.attempted
		ph.failed += rs.attempted - rs.ok()
		ph.executed = append(ph.executed, r)
		ph.all = append(ph.all, rs)
		// Measure again only if the rounds left can still fill the quota.
		left, needed := len(w.Rounds)-(r+1), want-len(ph.rounds)
		if rs.steal > maxStealShare && left >= needed {
			ph.rerun++
			continue
		}
		ph.rounds = append(ph.rounds, rs)
	}
	if ph.rssEnd, ph.rssPeak, err = readProcMem(in.proc.pid()); err != nil {
		return nil, err
	}
	return ph, nil
}

// warmUp sends the workload's warm-up ops and starts a phase with the
// server's memory after them.
func warmUp(ctx context.Context, in *instance, w *workload, limit time.Duration) (*phase, error) {
	ph := &phase{warm: runClosed(ctx, in.client, [][]op{w.Warmup}, time.Now().Add(limit))}
	for _, s := range ph.warm {
		if s.err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", s.op.Shape, s.err)
		}
	}
	var err error
	ph.rssSetup, _, err = readProcMem(in.proc.pid())
	return ph, err
}

// perRound evaluates f on every counted round.
func (ph *phase) perRound(f func(*roundStats) float64) []float64 {
	out := make([]float64, len(ph.rounds))
	for i, rs := range ph.rounds {
		out[i] = f(rs)
	}
	return out
}

// metricSet collects the metrics of one workload.
type metricSet struct {
	workload string
	list     []metric
}

// rounds adds a metric whose value is the median of its per-round values.
func (m *metricSet) rounds(name, unit string, values []float64, samples int) {
	m.list = append(m.list, metric{Name: name, Unit: unit, Workload: m.workload,
		Value: median(values), Spread: spread(values), Samples: samples, Rounds: values})
}

// once adds a metric measured once per run.
func (m *metricSet) once(name, unit string, value float64, samples int) {
	m.list = append(m.list, metric{Name: name, Unit: unit, Workload: m.workload, Value: value, Samples: samples})
}

// typicalCount is the median size of the per-round populations keep
// selects, reported as the sample count behind a percentile.
func (ph *phase) typicalCount(keep func(*sample) bool) int {
	return int(median(ph.perRound(func(rs *roundStats) float64 { return float64(len(rs.latencies(keep))) })))
}

// latencyMetric adds one percentile of the samples keep selects.
func (m *metricSet) latencyMetric(ph *phase, name string, p float64, keep func(*sample) bool) {
	m.rounds(name, "ms", ph.perRound(func(rs *roundStats) float64 {
		return percentile(rs.latencies(keep), p)
	}), ph.typicalCount(keep))
}

// endToEnd computes the gated metrics from a measured phase.
func endToEnd(w *workload, setups []float64, ph *phase) []metric {
	m := &metricSet{workload: w.Name}
	m.list = append(m.list, metric{Name: "setup_s", Unit: "s", Workload: w.Name,
		Value: median(setups), Spread: spread(setups), Samples: len(setups)})
	ops := int(median(ph.perRound(func(rs *roundStats) float64 { return float64(rs.ok()) })))
	m.rounds("ops_per_s", "1/s", ph.perRound(func(rs *roundStats) float64 {
		return ratio(float64(rs.ok()), rs.wall.Seconds())
	}), ops)
	m.latencyMetric(ph, "query_p50_ms", 0.50, isQuery)
	m.rounds("server_cpu_ms_per_op", "ms", ph.perRound(func(rs *roundStats) float64 {
		return ratio(rs.serverCPU*1000, float64(rs.ok()))
	}), ops)
	m.once("server_peak_rss_mb", "MiB", ph.rssPeak, 1)
	return m.list
}
