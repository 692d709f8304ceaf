// Command loadgen compiles a declarative workload spec into a
// deterministic, timestamped operation stream and replays it open-loop
// against a sqlshare-server — the offered rate never slows when the server
// does, and latency is measured from each op's scheduled start, so
// overload shows up in the percentiles instead of being coordinated away.
//
// Usage:
//
//	loadgen [-spec FILE] [-addr URL | -selfhost] [-levels 1,2,4]
//	        [-out FILE] [-workers N] [-parallelism N]
//	        [-seed N] [-ops N] [-rate R] [-smoke]
//
// With -spec, the workload comes from a JSON WorkloadSpec file (see
// internal/loadgen); without it, a built-in moderate default is used.
// -seed/-ops/-rate override the corresponding spec fields from the command
// line. With -selfhost, an in-process server is started on a loopback port
// so one command produces a full report; with -addr, an already-running
// server is driven instead (it should be fresh: setup creates users and
// datasets). -levels scales the spec's base rate into a ramp, one timed
// run per multiplier, all against one setup. The report is printed to
// stdout unless -out names a file.
//
// -smoke is the CI mode: a tiny built-in spec, one level, and a nonzero
// exit unless ops completed, no 5xx was seen, and the server's overload
// gauges (pool occupancy, in-flight queries) moved off zero under load.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sqlshare/internal/catalog"
	"sqlshare/internal/loadgen"
	"sqlshare/internal/server"
	"sqlshare/internal/synth"
)

func main() {
	specPath := flag.String("spec", "", "workload spec JSON file (default: built-in)")
	addr := flag.String("addr", "", "base URL of a running server (e.g. http://localhost:8080)")
	selfhost := flag.Bool("selfhost", false, "start an in-process server on a loopback port")
	out := flag.String("out", "", "report output path (default: stdout)")
	levelsFlag := flag.String("levels", "1,2,4", "comma-separated offered-rate multipliers")
	workers := flag.Int("workers", 0, "max in-flight ops (default 16)")
	parallelism := flag.Int("parallelism", 0, "per-query worker cap sent with submissions (0 = server default)")
	seed := flag.Int64("seed", -1, "override spec seed (-1 = keep)")
	ops := flag.Int("ops", 0, "override spec op count (0 = keep)")
	rate := flag.Float64("rate", 0, "override spec base rate ops/sec (0 = keep)")
	smoke := flag.Bool("smoke", false, "CI smoke mode: tiny spec, one level, assert health")
	flag.Parse()

	spec := defaultSpec()
	if *smoke {
		spec = smokeSpec()
	}
	if *specPath != "" {
		var err error
		spec, err = loadgen.LoadSpec(*specPath)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
	}
	if *seed >= 0 {
		spec.Seed = *seed
	}
	if *ops > 0 {
		spec.Ops = *ops
	}
	if *rate > 0 {
		spec.RatePerSec = *rate
	}

	levels, err := parseLevels(*levelsFlag)
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	if *smoke {
		levels = []float64{1}
	}

	plan, err := loadgen.Compile(spec)
	if err != nil {
		log.Fatalf("loadgen: compile: %v", err)
	}
	log.Printf("compiled %q: %d users, %d setup datasets, %d ops over %v at %.0f/s",
		spec.Name, len(plan.Users), len(plan.Setup), len(plan.Ops),
		plan.Duration().Round(time.Millisecond), spec.RatePerSec)

	baseURL := *addr
	if *selfhost || baseURL == "" {
		stop, url, err := startSelfHosted()
		if err != nil {
			log.Fatalf("loadgen: selfhost: %v", err)
		}
		defer stop()
		baseURL = url
		log.Printf("self-hosted server on %s", url)
	}

	d := &loadgen.Driver{
		BaseURL:     baseURL,
		Workers:     *workers,
		Parallelism: *parallelism,
		Logf:        log.Printf,
	}
	if *smoke {
		// The smoke gate asserts that transient overload gauges were seen
		// moving: sample densely, keep enough ops in flight to exceed the
		// health handler's queue threshold, and raise the per-query DOP
		// above serial so the engine pool engages even on one-core hosts.
		d.SamplePeriod = 2 * time.Millisecond
		if d.Workers == 0 {
			d.Workers = 8 * runtime.GOMAXPROCS(0)
		}
		if d.Parallelism == 0 {
			d.Parallelism = 2
		}
	}

	// Each level compiles the same stream into its own user-name namespace
	// (l1_, l2_, ...), so the write ops — uploads, append batches — never
	// collide with a previous level's datasets and every level starts from
	// an identical catalog shape.
	ctx := context.Background()
	basePrefix := spec.UserPrefix
	if basePrefix == "" {
		basePrefix = "load"
	}
	runNamespaced := func(prefix string, mult float64) (*loadgen.LevelResult, error) {
		lspec := spec
		lspec.UserPrefix = prefix
		lplan, err := loadgen.Compile(lspec)
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		if err := d.Setup(lplan); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		return d.RunLevel(ctx, lplan, mult)
	}
	var results []loadgen.LevelResult
	for i, mult := range levels {
		res, err := runNamespaced(fmt.Sprintf("l%d_%s", i+1, basePrefix), mult)
		if err != nil {
			log.Fatalf("loadgen: level x%.1f: %v", mult, err)
		}
		results = append(results, *res)
	}
	if *smoke && results[0].Server.MaxPoolOccupancy == 0 {
		// Pool-occupancy windows are transient and sampled; give the gauge
		// two more passes (each in a fresh namespace) before calling it
		// broken. Only the overload maxima are merged — op counts stay
		// from the first pass.
		for attempt := 0; attempt < 2 && results[0].Server.MaxPoolOccupancy == 0; attempt++ {
			res, err := runNamespaced(fmt.Sprintf("r%d_%s", attempt+1, basePrefix), levels[0])
			if err != nil {
				log.Fatalf("loadgen: smoke retry: %v", err)
			}
			s := &results[0].Server
			if res.Server.MaxPoolOccupancy > s.MaxPoolOccupancy {
				s.MaxPoolOccupancy = res.Server.MaxPoolOccupancy
			}
			if res.Server.MaxInflight > s.MaxInflight {
				s.MaxInflight = res.Server.MaxInflight
			}
			if res.Server.MaxJobQueueDepth > s.MaxJobQueueDepth {
				s.MaxJobQueueDepth = res.Server.MaxJobQueueDepth
			}
			s.BusyObserved = s.BusyObserved || res.Server.BusyObserved
		}
	}

	report := &loadgen.Report{
		Workload:    spec.Name,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host:        fmt.Sprintf("%s/%s gomaxprocs=%d", runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0)),
		Spec:        spec,
		Levels:      results,
	}
	if err := loadgen.WriteReport(*out, report); err != nil {
		log.Fatalf("loadgen: write report: %v", err)
	}
	if *out != "" {
		log.Printf("wrote %s (%d levels)", *out, len(results))
	}

	if *smoke {
		if err := assertSmoke(results); err != nil {
			log.Fatalf("loadgen: smoke FAILED: %v", err)
		}
		log.Printf("smoke OK")
	}
}

// defaultSpec is the ramp benchmark workload: a moderate population with
// the paper-calibrated template mix and a light write stream.
func defaultSpec() loadgen.WorkloadSpec {
	return loadgen.WorkloadSpec{
		Name: "ramp", Seed: 1, Users: 8, TablesPerUser: 2, RowsPerTable: 1500,
		WriteFraction: 0.08, UploadFraction: 0.04,
		DatasetZipf: 0.8, ValueZipf: 0.5,
		Ops: 300, RatePerSec: 40, ThinkMs: 50,
	}
}

// smokeSpec is the CI workload: small and fast, but join-heavy enough to
// put real pressure on the worker pool so the overload gauges move.
func smokeSpec() loadgen.WorkloadSpec {
	return loadgen.WorkloadSpec{
		Name: "smoke", Seed: 7, Users: 4, TablesPerUser: 2, RowsPerTable: 8000,
		Mix:           synth.TemplateMix{Filter: 1, Aggregate: 1, Join: 2, Complex: 1},
		JoinDepth:     2,
		WriteFraction: 0.1, UploadFraction: 0.05,
		Ops: 60, RatePerSec: 500,
	}
}

func parseLevels(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad level %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no levels in %q", s)
	}
	return out, nil
}

// startSelfHosted runs an in-process server on a loopback listener.
func startSelfHosted() (stop func(), url string, err error) {
	srv := server.New(catalog.New())
	srv.ConfigureCache(64<<20, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: srv}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("selfhost server: %v", err)
		}
	}()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
	}
	return stop, "http://" + ln.Addr().String(), nil
}

// assertSmoke enforces the CI gate: completed work, no server errors, and
// overload signals that actually moved under load.
func assertSmoke(results []loadgen.LevelResult) error {
	if len(results) == 0 {
		return fmt.Errorf("no levels ran")
	}
	r := results[0]
	if r.Completed == 0 {
		return fmt.Errorf("no ops completed")
	}
	if r.HTTP5xx != 0 {
		return fmt.Errorf("%d HTTP 5xx responses", r.HTTP5xx)
	}
	if r.Failed > r.Ops/5 {
		return fmt.Errorf("%d/%d ops failed", r.Failed, r.Ops)
	}
	s := r.Server
	if s.Samples == 0 {
		return fmt.Errorf("no server-side samples scraped")
	}
	if s.MaxInflight == 0 {
		return fmt.Errorf("sqlshare_overload_inflight_queries never moved off zero")
	}
	if s.MaxPoolOccupancy == 0 {
		return fmt.Errorf("sqlshare_overload_pool_occupancy never moved off zero")
	}
	if s.MaxJobQueueDepth == 0 {
		return fmt.Errorf("sqlshare_overload_job_queue_depth never moved off zero")
	}
	fmt.Fprintf(os.Stderr, "smoke: %d/%d ok, peak inflight=%.0f occupancy=%.2f queue=%.0f busy=%v p99=%.3fs\n",
		r.Completed, r.Ops, s.MaxInflight, s.MaxPoolOccupancy, s.MaxJobQueueDepth,
		s.BusyObserved, r.Latency["all"].P99)
	return nil
}
