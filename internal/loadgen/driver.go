package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// userHeader is the server's trust-the-proxy identity header.
const userHeader = "X-SQLShare-User"

// Driver replays a compiled Plan against a running server over REST.
//
// The replay is open-loop: operations are dispatched on the compiled
// schedule regardless of how fast the server answers. Workers bound the
// number of in-flight operations, but a slow server never pushes the
// schedule back — late ops queue, and their latency is measured from the
// *scheduled* start, so queueing delay shows up in the percentiles instead
// of being coordinated away.
type Driver struct {
	BaseURL string
	Client  *http.Client
	// Workers bounds in-flight operations (default 16).
	Workers int
	// PollWait is the long-poll window per status request (default 10s).
	PollWait time.Duration
	// OpTimeout abandons an op still unfinished this long after its
	// scheduled start (default 60s). Abandoned ops count as errors.
	OpTimeout time.Duration
	// SamplePeriod spaces server-side metric scrapes (default 100ms).
	SamplePeriod time.Duration
	// Parallelism, when > 0, is sent with every query submission as the
	// per-query worker cap — it can raise a small host's serial default so
	// the engine's parallel pool engages under load.
	Parallelism int
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (d *Driver) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

func (d *Driver) client() *http.Client {
	if d.Client != nil {
		return d.Client
	}
	return http.DefaultClient
}

func (d *Driver) workers() int {
	if d.Workers > 0 {
		return d.Workers
	}
	return 16
}

func (d *Driver) pollWait() time.Duration {
	if d.PollWait > 0 {
		return d.PollWait
	}
	return 10 * time.Second
}

func (d *Driver) opTimeout() time.Duration {
	if d.OpTimeout > 0 {
		return d.OpTimeout
	}
	return 60 * time.Second
}

func (d *Driver) samplePeriod() time.Duration {
	if d.SamplePeriod > 0 {
		return d.SamplePeriod
	}
	return 100 * time.Millisecond
}

// ServerSample aggregates the server-side counters scraped during a level:
// running maxima of the overload gauges, whether /api/health ever reported
// busy, and the end-of-level cache hit rate.
type ServerSample struct {
	MaxJobQueueDepth  float64 `json:"maxJobQueueDepth"`
	MaxPoolOccupancy  float64 `json:"maxPoolOccupancy"`
	MaxInflight       float64 `json:"maxInflightQueries"`
	MaxInflightMemMB  float64 `json:"maxInflightMemMB"`
	BusyObserved      bool    `json:"busyObserved"`
	CacheHitRate      float64 `json:"cacheHitRate"`
	CacheHits         float64 `json:"cacheHits"`
	CacheMisses       float64 `json:"cacheMisses"`
	Samples           int     `json:"samples"`
	FinalQueueDepth   float64 `json:"finalQueueDepth"`
	FinalPoolOccupied float64 `json:"finalPoolOccupancy"`
}

// LevelResult is the outcome of one offered-load level.
type LevelResult struct {
	Multiplier  float64 `json:"multiplier"`
	OfferedRate float64 `json:"offeredRatePerSec"`
	// AchievedRate is completions per wall second — diverges from offered
	// under overload.
	AchievedRate    float64              `json:"achievedRatePerSec"`
	DurationSeconds float64              `json:"durationSeconds"`
	Ops             int                  `json:"ops"`
	Completed       int                  `json:"completed"`
	Failed          int                  `json:"failed"`
	HTTP5xx         int                  `json:"http5xx"`
	Latency         map[string]Quantiles `json:"latency"`
	Server          ServerSample         `json:"server"`
}

// Setup provisions the plan's users and initial datasets. Idempotence is
// not attempted: run it against a fresh server.
func (d *Driver) Setup(plan *Plan) error {
	for _, u := range plan.Users {
		code, _, err := d.doJSON("POST", "/api/users", "", map[string]string{
			"name": u, "email": u + "@loadgen.invalid",
		})
		if err != nil {
			return fmt.Errorf("create user %s: %w", u, err)
		}
		if code != http.StatusCreated {
			return fmt.Errorf("create user %s: HTTP %d", u, code)
		}
	}
	for _, ds := range plan.Setup {
		if err := d.upload(ds.User, ds.Name, ds.Data); err != nil {
			return fmt.Errorf("setup dataset %s.%s: %w", ds.User, ds.Name, err)
		}
		if ds.Public {
			code, _, err := d.doJSON("PUT",
				"/api/datasets/"+ds.User+"/"+ds.Name+"/permissions", ds.User,
				map[string]any{"public": true})
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("share %s.%s: HTTP %d, %v", ds.User, ds.Name, code, err)
			}
		}
	}
	d.logf("setup: %d users, %d datasets", len(plan.Users), len(plan.Setup))
	return nil
}

// RunLevel replays the plan's op stream with timestamps compressed by
// mult (2.0 = twice the base offered rate).
func (d *Driver) RunLevel(ctx context.Context, plan *Plan, mult float64) (*LevelResult, error) {
	if mult <= 0 {
		return nil, fmt.Errorf("level multiplier must be positive, got %v", mult)
	}
	type workItem struct {
		op    *Op
		sched time.Time
	}
	// The queue holds every op so the dispatcher never blocks on slow
	// workers — that would close the loop.
	queue := make(chan workItem, len(plan.Ops))
	var completed, failed, http5xx atomic.Int64
	rec := NewRecorder()

	var wg sync.WaitGroup
	for w := 0; w < d.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range queue {
				err := d.execute(ctx, item.op, item.sched)
				latency := time.Since(item.sched)
				if err != nil {
					failed.Add(1)
					if isServerError(err) {
						http5xx.Add(1)
					}
					d.logf("op %d failed (%s %s as %s): %v",
						item.op.Seq, item.op.Kind, item.op.Template, item.op.User, err)
				} else {
					completed.Add(1)
				}
				// Failures are timed too: an op that errored after 30s of
				// queueing is a 30s experience, not a discarded sample.
				rec.Add(item.op.Template, latency)
			}
		}()
	}

	// Server-side sampler.
	sampleCtx, stopSampling := context.WithCancel(ctx)
	var sample ServerSample
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		d.sampleLoop(sampleCtx, &sample)
	}()

	start := time.Now()
	dispatched := 0
	for i := range plan.Ops {
		op := &plan.Ops[i]
		sched := start.Add(time.Duration(float64(op.At) / mult))
		if wait := time.Until(sched); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		queue <- workItem{op: op, sched: sched}
		dispatched++
	}
	close(queue)
	wg.Wait()
	elapsed := time.Since(start)
	stopSampling()
	sampleWG.Wait()
	d.finishSample(&sample)

	res := &LevelResult{
		Multiplier:      mult,
		OfferedRate:     plan.Spec.RatePerSec * mult,
		DurationSeconds: elapsed.Seconds(),
		Ops:             dispatched,
		Completed:       int(completed.Load()),
		Failed:          int(failed.Load()),
		HTTP5xx:         int(http5xx.Load()),
		Latency:         rec.Summarize(),
		Server:          sample,
	}
	if elapsed > 0 {
		res.AchievedRate = float64(res.Completed) / elapsed.Seconds()
	}
	d.logf("level x%.1f: %d/%d ok, %d failed (%d 5xx), p99=%.3fs, busy=%v",
		mult, res.Completed, res.Ops, res.Failed, res.HTTP5xx,
		res.Latency["all"].P99, sample.BusyObserved)
	if ctx.Err() != nil {
		return res, ctx.Err()
	}
	return res, nil
}

// ---- op execution ----

// serverError marks an HTTP 5xx so the driver can count server failures
// separately from op-level errors (failed queries, 4xx rejections).
type serverError struct{ code int }

func (e *serverError) Error() string { return fmt.Sprintf("HTTP %d", e.code) }

func isServerError(err error) bool {
	var se *serverError
	return errors.As(err, &se)
}

func (d *Driver) execute(ctx context.Context, op *Op, sched time.Time) error {
	deadline := sched.Add(d.opTimeout())
	opCtx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	switch op.Kind {
	case OpQuery:
		return d.runQuery(opCtx, op)
	case OpUpload:
		return d.uploadCtx(opCtx, op.User, op.Name, op.Data)
	case OpAppend:
		// Append is the composite daily-batch write: upload the batch as
		// its own dataset, then splice it into the target (the server
		// rewrites the target as a UNION ALL view over both).
		if err := d.uploadCtx(opCtx, op.User, op.Name, op.Data); err != nil {
			return err
		}
		code, _, err := d.doJSONCtx(opCtx, "POST",
			"/api/datasets/"+op.User+"/"+op.Dataset+"/append", op.User,
			map[string]string{"source": op.Name})
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return httpError(code)
		}
		return nil
	default:
		return fmt.Errorf("unknown op kind %q", op.Kind)
	}
}

func (d *Driver) runQuery(ctx context.Context, op *Op) error {
	payload := map[string]any{"sql": op.SQL}
	if d.Parallelism > 0 {
		payload["parallelism"] = d.Parallelism
	}
	code, body, err := d.doJSONCtx(ctx, "POST", "/api/queries", op.User, payload)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		return httpError(code)
	}
	id, _ := body["id"].(string)
	if id == "" {
		return fmt.Errorf("submit returned no id")
	}
	wait := d.pollWait().String()
	for {
		code, body, err = d.doJSONCtx(ctx, "GET",
			"/api/queries/"+id+"?wait="+wait, op.User, nil)
		if err != nil {
			return err
		}
		// 422 is a row/memory-limit abort: terminal, client-addressable.
		if code != http.StatusOK && code != http.StatusUnprocessableEntity {
			return httpError(code)
		}
		switch body["status"] {
		case "done":
			return nil
		case "failed", "killed":
			msg, _ := body["error"].(string)
			return fmt.Errorf("query %s: %s", body["status"], msg)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
}

func httpError(code int) error {
	if code >= 500 {
		return &serverError{code: code}
	}
	return fmt.Errorf("HTTP %d", code)
}

func (d *Driver) upload(user, name string, data []byte) error {
	return d.uploadCtx(context.Background(), user, name, data)
}

func (d *Driver) uploadCtx(ctx context.Context, user, name string, data []byte) error {
	code, body, err := d.doRaw(ctx, "POST", "/api/staging", user, data)
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return httpError(code)
	}
	stagedID, _ := body["stagedId"].(string)
	code, _, err = d.doJSONCtx(ctx, "POST", "/api/datasets", user,
		map[string]string{"name": name, "stagedId": stagedID})
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return httpError(code)
	}
	return nil
}

// ---- HTTP plumbing ----

func (d *Driver) doJSON(method, path, user string, payload any) (int, map[string]any, error) {
	return d.doJSONCtx(context.Background(), method, path, user, payload)
}

func (d *Driver) doJSONCtx(ctx context.Context, method, path, user string, payload any) (int, map[string]any, error) {
	var body []byte
	if payload != nil {
		var err error
		body, err = json.Marshal(payload)
		if err != nil {
			return 0, nil, err
		}
	}
	return d.doRaw(ctx, method, path, user, body)
}

func (d *Driver) doRaw(ctx context.Context, method, path, user string, body []byte) (int, map[string]any, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if user != "" {
		req.Header.Set(userHeader, user)
	}
	resp, err := d.client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out, nil
}

// ---- server-side sampling ----

// sampleLoop scrapes /metrics and /api/health on a fixed cadence, keeping
// running maxima — overload is a transient, and end-of-run snapshots miss
// it.
func (d *Driver) sampleLoop(ctx context.Context, s *ServerSample) {
	tick := time.NewTicker(d.samplePeriod())
	defer tick.Stop()
	for {
		d.sampleOnce(ctx, s)
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

func (d *Driver) sampleOnce(ctx context.Context, s *ServerSample) {
	gauges, err := d.scrapeMetrics(ctx)
	if err == nil {
		s.Samples++
		s.MaxJobQueueDepth = maxf(s.MaxJobQueueDepth, gauges["sqlshare_overload_job_queue_depth"])
		s.MaxPoolOccupancy = maxf(s.MaxPoolOccupancy, gauges["sqlshare_overload_pool_occupancy"])
		s.MaxInflight = maxf(s.MaxInflight, gauges["sqlshare_overload_inflight_queries"])
		s.MaxInflightMemMB = maxf(s.MaxInflightMemMB, gauges["sqlshare_overload_inflight_mem_bytes"]/(1<<20))
		s.FinalQueueDepth = gauges["sqlshare_overload_job_queue_depth"]
		s.FinalPoolOccupied = gauges["sqlshare_overload_pool_occupancy"]
		s.CacheHits = gauges["sqlshare_cache_hits_total"]
		s.CacheMisses = gauges["sqlshare_cache_misses_total"]
	}
	code, health, err := d.doJSONCtx(ctx, "GET", "/api/health", "", nil)
	if err == nil && code == http.StatusOK && health["status"] == "busy" {
		s.BusyObserved = true
	}
}

func (d *Driver) finishSample(s *ServerSample) {
	if total := s.CacheHits + s.CacheMisses; total > 0 {
		s.CacheHitRate = s.CacheHits / total
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// scrapeMetrics pulls the Prometheus text exposition and returns bare
// (unlabeled) metric values by name.
func (d *Driver) scrapeMetrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", d.BaseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	return ParseMetrics(string(body)), nil
}

// ParseMetrics parses Prometheus text exposition into name → value,
// skipping comments and labeled series.
func ParseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 || strings.Contains(fields[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out
}
