// Command bench is the SQLShare service benchmark: four named workloads
// driven over loopback REST against a sqlshare-server child process built
// from the checkout it runs in. See README.md in this directory.
//
// Run it from the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-quick]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"text/tabwriter"
)

func main() {
	workloadFlag := flag.String("workload", "", "workload to run: point, analytic, paper_mix or pipeline (default: all four)")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 10, "nominal length of the measured phase; op counts scale with it")
	trace := flag.String("trace", "", "0 = end-to-end run only, 1 = traced per-layer run only (default: both)")
	quick := flag.Bool("quick", false, "one round, a tenth of the ops and rows: a smoke run, not a measurement")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != "" && *trace != "0" && *trace != "1") {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ok, err := run(ctx, *workloadFlag, *seed, sizes{Seconds: *seconds, Quick: *quick}, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes the requested workloads and modes, prints the metric table
// and the one-line summary, and writes bench/out/results.json. It reports
// whether every check passed.
func run(ctx context.Context, only string, seed int64, sz sizes, trace string) (bool, error) {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err != nil {
		return false, fmt.Errorf("run from the repository root (bench/go.mod not found): %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	names := workloadNames
	if only != "" {
		names = []string{only}
	}
	// Generate before building, so a bad workload name costs nothing.
	workloads := make([]*workload, len(names))
	for i, name := range names {
		w, err := generate(name, seed, sz)
		if err != nil {
			return false, err
		}
		number(w)
		workloads[i] = w
	}
	bin, err := buildServer(ctx)
	if err != nil {
		return false, err
	}

	var reports []*runReport
	tr := newTracer()
	for _, w := range workloads {
		os.Remove(serverLogPath(w.Name)) // each invocation starts the log afresh
		if trace != "1" {
			rep, err := runEndToEnd(ctx, bin, w, seed, sz)
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.Name, err)
			}
			reports = append(reports, rep)
		}
		if trace != "0" {
			rep, err := runTraced(ctx, bin, w, seed, sz, tr)
			if err != nil {
				return false, fmt.Errorf("%s (traced): %w", w.Name, err)
			}
			reports = append(reports, rep)
		}
	}
	if trace != "0" {
		if err := tr.write(filepath.Join(outDir, "trace.json")); err != nil {
			return false, err
		}
	}
	printTable(reports)
	if err := writeResults(reports); err != nil {
		return false, err
	}
	return printSummary(reports), nil
}

// printTable prints every metric of every run by name, with its unit,
// workload, value, round-to-round spread and sample count, then each traced
// run's latency budget and every note.
func printTable(reports []*runReport) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\tspread\tsamples")
	for _, rep := range reports {
		for _, m := range rep.Metrics {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%.3f\t%d\n", m.Workload, m.Name, m.Value, m.Unit, m.Spread, m.Samples)
		}
	}
	tw.Flush()
	for _, rep := range reports {
		if rep.Budget != nil {
			printBudget(rep.Workload, rep.Budget)
		}
	}
	for _, rep := range reports {
		mode := "end-to-end"
		if rep.Traced {
			mode = "traced"
		}
		fmt.Printf("%s (%s): correct=%v attempted=%d failed=%d checked=%d mismatched=%d skipped=%d lost_acked_writes=%d\n",
			rep.Workload, mode, rep.Correct, rep.Attempted, rep.Failed,
			rep.Check.Checked, rep.Check.Mismatched, rep.Check.Skipped, rep.LostAckedWrites)
		for _, n := range rep.Notes {
			fmt.Printf("  note: %s\n", n)
		}
	}
}

func writeResults(reports []*runReport) error {
	data, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "results.json"), append(data, '\n'), 0o644)
}

// printSummary prints the last line of output: one JSON object with the
// outcome of the checks and the metrics of the mode that was asked for,
// every declared metric present. It reports whether all checks passed.
//
// With several workloads in one invocation the line describes them all:
// counts add up and a metric is keyed "workload/name". The driver of
// BENCHMARK.json always passes one workload, and then keys are bare names.
func printSummary(reports []*runReport) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	many := map[string]bool{}
	for _, rep := range reports {
		many[rep.Workload] = true
	}
	key := func(workload, name string) string {
		if len(many) > 1 {
			return workload + "/" + name
		}
		return name
	}
	for _, rep := range reports {
		summary.Correct = summary.Correct && rep.Correct
		summary.Attempted += rep.Attempted
		summary.Failed += rep.Failed
		declared := endToEndMetrics
		if rep.Traced {
			declared = perLayerMetrics
		}
		have := map[string]float64{}
		for _, m := range rep.Metrics {
			have[m.Name] = m.Value
		}
		for _, d := range declared {
			// A per-layer metric that does not apply to a workload reads 0.
			summary.Metrics[key(rep.Workload, d.Name)] = value{Value: have[d.Name], Unit: d.Unit}
		}
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return false
	}
	fmt.Println(string(line))
	return summary.Correct
}

// metricDef declares a metric: BENCHMARK.json lists the same names, units
// and directions, and a unit test keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"query_p50_ms", "ms", "lower"},
	{"server_cpu_ms_per_op", "ms", "lower"},
	{"server_peak_rss_mb", "MiB", "lower"},
}

// perLayerMetrics are the traced run's metrics. The names before the first
// dot are this repository's packages; the seven without a dot are end-to-end
// metrics that cannot be gated on every workload: they exist on some
// workloads only, are 0 when all is well, or (the tails) do not repeat
// within the largest bound a gate may have. See NOISE.md.
var perLayerMetrics = []metricDef{
	{"query_p95_ms", "ms", "lower"},
	{"short_query_p95_ms", "ms", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"write_p95_ms", "ms", "lower"},
	{"failed_share", "ratio", "lower"},
	{"disk_bytes_per_user_byte", "ratio", "lower"},
	{"recovery_s", "s", "lower"},

	{"server.submit_p50_ms", "ms", "lower"},
	{"server.poll_p50_ms", "ms", "lower"},
	{"server.handler_self_p50_ms", "ms", "lower"},
	{"server.transport_p50_ms", "ms", "lower"},
	{"server.response_bytes_per_op", "B", "lower"},
	{"server.job_queue_depth_max", "count", "lower"},
	{"server.http_5xx", "count", "lower"},
	{"server.rss_growth_mb_per_kop", "MiB", "lower"},

	{"catalog.query_p50_ms", "ms", "lower"},
	{"catalog.self_p50_ms", "ms", "lower"},
	{"catalog.self_share", "ratio", "lower"},
	{"catalog.short_behind_long_ratio", "ratio", "lower"},
	{"catalog.append_p50_ms", "ms", "lower"},
	{"catalog.create_dataset_p50_ms", "ms", "lower"},
	{"catalog.materialize_p50_ms", "ms", "lower"},

	{"sqlparser.parse_p50_us", "us", "lower"},
	{"sqlparser.parse_ns_per_byte", "ns/B", "lower"},

	{"engine.compile_p50_us", "us", "lower"},
	{"engine.execute_p50_ms", "ms", "lower"},
	{"engine.execute_share", "ratio", "lower"},
	{"engine.exec_ns_per_row_scanned", "ns", "lower"},
	{"engine.rows_scanned_per_row_returned", "ratio", "lower"},
	{"engine.parallel_query_share", "ratio", "higher"},
	{"engine.q_scan_agg_ms", "ms", "lower"},
	{"engine.q_range_ms", "ms", "lower"},
	{"engine.q_group_low_ms", "ms", "lower"},
	{"engine.q_group_high_ms", "ms", "lower"},
	{"engine.q_join_agg_ms", "ms", "lower"},
	{"engine.q_topn_ms", "ms", "lower"},
	{"engine.q_window_ms", "ms", "lower"},
	{"engine.q_viewchain_ms", "ms", "lower"},
	{"engine.quadratic_cpu_share", "ratio", "lower"},

	{"storage.segments_skipped_share", "ratio", "higher"},
	{"storage.insert_rows_per_s", "1/s", "higher"},
	{"storage.row_size_bytes", "B", "lower"},
	{"storage.rss_bytes_per_user_byte", "ratio", "lower"},

	{"plan.extract_p50_us", "us", "lower"},
	{"plan.digest_p50_us", "us", "lower"},

	{"qcache.hit_share", "ratio", "higher"},
	{"qcache.evictions", "count", "lower"},
	{"qcache.bytes_end", "B", "lower"},
	{"qcache.hit_p50_ms", "ms", "lower"},
	{"qcache.miss_p50_ms", "ms", "lower"},

	{"ingest.load_mb_per_s", "MB/s", "higher"},
	{"ingest.rows_per_s", "1/s", "higher"},

	{"wal.fsync_count", "count", "lower"},
	{"wal.fsync_mean_ms", "ms", "lower"},
	{"wal.records_per_fsync", "ratio", "higher"},
	{"wal.bytes_per_user_byte", "ratio", "lower"},
	{"wal.append_p50_us", "us", "lower"},
	{"wal.recovery_records_per_s", "1/s", "higher"},

	{"obs.sinks_overhead_share", "ratio", "lower"},
	{"obs.optrace_overhead_share", "ratio", "lower"},

	{"loadgen.sched_lag_p95_ms", "ms", "lower"},
	{"loadgen.backlog_max", "count", "lower"},
	{"loadgen.slo_miss_share", "ratio", "lower"},
	{"loadgen.query_p99_ms", "ms", "lower"},
	{"loadgen.client_cpu_share", "ratio", "lower"},
	{"loadgen.trace_overhead_ratio", "ratio", "lower"},

	{"host.steal_share", "ratio", "lower"},
	{"host.nproc", "count", "higher"},
	{"host.gomaxprocs", "count", "higher"},
}
