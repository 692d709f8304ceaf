package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"
)

// sample is the client's record of one executed op.
type sample struct {
	op *op
	// latency runs from the moment the op was due (open loop) or sent
	// (closed loop) to its completion.
	latency time.Duration
	// lag is how long after its due time the generator released the op
	// (open loop): the generator's own lateness, not the wait for a free
	// connection, which is part of latency.
	lag    time.Duration
	timing queryTiming
	cache  string
	// sent and done bracket the op on the wall clock; the output check uses
	// them to tell whether a write overlapped a query it could affect.
	sent, done time.Time
	hash       uint64 // result fingerprint, for ops marked Check
	err        error
}

func (s *sample) ms() float64 { return float64(s.latency) / float64(time.Millisecond) }

// opTimeout bounds one op. No op of any workload comes near it on a working
// server; an op that hits it counts as failed.
const opTimeout = 60 * time.Second

// execute runs one op over REST and times it from due.
func (c *restClient) execute(ctx context.Context, o *op, due time.Time) sample {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	s := sample{op: o, sent: time.Now()}
	switch o.Kind {
	case opQuery:
		var res *queryResult
		res, s.timing, s.err = c.query(ctx, o.User, o.SQL)
		if res != nil {
			s.cache = res.Cache
			if o.Check {
				s.hash = hashResult(res.Columns, res.Rows)
			}
		}
	case opUpload:
		s.err = c.upload(ctx, o.User, o.Name, o.Data)
	case opAppend:
		if o.Data != nil {
			s.err = c.upload(ctx, o.User, o.Name, o.Data)
		}
		if s.err == nil {
			s.err = c.appendTo(ctx, o.User, o.Target, o.Name)
		}
	case opMaterialize:
		s.err = c.materialize(ctx, o.User, o.Target, o.Name)
	default:
		s.err = fmt.Errorf("unknown op kind %q", o.Kind)
	}
	s.done = time.Now()
	s.latency = s.done.Sub(due)
	if c.tr != nil {
		c.tr.add(c.path, o.ID, "op", "", s.sent, s.done)
		if o.Kind == opQuery {
			c.tr.add(c.path, o.ID, "submit", "op", s.sent, s.sent.Add(s.timing.submit))
			c.tr.add(c.path, o.ID, "poll", "op", s.done.Add(-s.timing.poll), s.done)
		}
	}
	return s
}

// runClosed runs each client's op list on its own goroutine, one op at a
// time: a slow server is sent less. No op is started after the deadline.
func runClosed(ctx context.Context, c *restClient, clients [][]op, deadline time.Time) []sample {
	out := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := range clients[i] {
				if ctx.Err() != nil || time.Now().After(deadline) {
					return
				}
				out[i] = append(out[i], c.execute(ctx, &clients[i][j], time.Now()))
			}
		}(i)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// runOpen sends each op at its due time whatever the server is doing. The
// queue holds the whole round, so a stalled server never delays the
// schedule; late ops wait in it and are charged from their due time.
// backlogMax is the deepest that queue got. No op is sent after the
// deadline.
func runOpen(ctx context.Context, c *restClient, ops []op, deadline time.Time) (samples []sample, backlogMax int) {
	type item struct {
		op       *op
		due      time.Time
		released time.Time
	}
	queue := make(chan item, len(ops)) // sized to the number of sends
	results := make([][]sample, numConnections)
	var wg sync.WaitGroup
	for w := 0; w < numConnections; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := range queue {
				s := c.execute(ctx, it.op, it.due)
				s.lag = it.released.Sub(it.due)
				results[w] = append(results[w], s)
			}
		}(w)
	}
	start := time.Now()
	for i := range ops {
		due := start.Add(ops[i].At)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			break
		}
		queue <- item{op: &ops[i], due: due, released: time.Now()}
		if n := len(queue); n > backlogMax {
			backlogMax = n
		}
	}
	close(queue)
	wg.Wait()
	for _, r := range results {
		samples = append(samples, r...)
	}
	return samples, backlogMax
}

// load creates the workload's users, datasets and views on the server.
// Datasets go up over all connections at once, as a scripted client would
// send them.
func load(ctx context.Context, c *restClient, s *setupPlan) error {
	for _, u := range s.Users {
		if err := c.createUser(ctx, u); err != nil {
			return fmt.Errorf("create user %s: %w", u, err)
		}
	}
	work := make(chan *dataset)
	errs := make(chan error, numConnections) // one slot per worker
	for w := 0; w < numConnections; w++ {
		go func() {
			var first error
			for d := range work {
				if first != nil {
					continue
				}
				if err := c.upload(ctx, d.User, d.Name, d.CSV); err != nil {
					first = fmt.Errorf("upload %s.%s: %w", d.User, d.Name, err)
				} else if d.Public {
					first = c.setPublic(ctx, d.User, d.Name)
				}
			}
			errs <- first
		}()
	}
	for i := range s.Datasets {
		work <- &s.Datasets[i]
	}
	close(work)
	var first error
	for w := 0; w < numConnections; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	for _, v := range s.Views {
		if err := c.saveView(ctx, v.User, v.Name, v.SQL); err != nil {
			return fmt.Errorf("save view %s.%s: %w", v.User, v.Name, err)
		}
		if v.Public {
			if err := c.setPublic(ctx, v.User, v.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

// instance is a started, loaded server with the client that drives it.
type instance struct {
	proc    *serverProc
	client  *restClient
	dataDir string // durable workloads only
	setup   time.Duration
}

func (in *instance) close(kill bool) {
	in.client.close()
	if kill {
		in.proc.kill()
	} else {
		in.proc.stop()
	}
	if in.dataDir != "" {
		os.RemoveAll(in.dataDir)
	}
}

// Flags of the durable workload's server: checkpoints fire on record count
// only, often enough that several complete within a run.
func durableFlags(dataDir string) []string {
	return []string{"-data-dir", dataDir, "-wal-sync", "group",
		"-checkpoint-every", "0", "-checkpoint-records", "48"}
}

// bringUp starts a server for w and loads the workload's set-up into it.
// The returned instance's setup is the time from process start to loaded.
func bringUp(ctx context.Context, bin string, w *workload) (*instance, error) {
	in := &instance{}
	var flags []string
	if w.Durable {
		dir, err := os.MkdirTemp(outDir, "data-")
		if err != nil {
			return nil, err
		}
		in.dataDir = dir
		flags = durableFlags(dir)
	}
	start := time.Now()
	proc, err := startServer(ctx, bin, serverLogPath(w.Name), flags...)
	if err != nil {
		if in.dataDir != "" {
			os.RemoveAll(in.dataDir)
		}
		return nil, err
	}
	in.proc = proc
	in.client = newRESTClient(proc.base)
	if err := load(ctx, in.client, &w.Setup); err != nil {
		in.close(true)
		return nil, fmt.Errorf("set-up: %w", err)
	}
	in.setup = time.Since(start)
	return in, nil
}

func serverLogPath(workload string) string {
	return fmt.Sprintf("%s/server-%s.log", outDir, workload)
}
