package main

import (
	"context"
	"fmt"
	"time"
)

// setupRepeats is how often a run sets the workload up from nothing.
// setup_s is the median, so one slow start does not decide it.
const setupRepeats = 3

// runReport is the outcome of one run of one workload.
type runReport struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Traced    bool        `json:"traced"`
	Correct   bool        `json:"correct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Check     checkResult `json:"outputCheck"`
	// LostAckedWrites counts acknowledged datasets or rows missing after
	// the durable workload's kill and restart; it must be 0.
	LostAckedWrites int            `json:"lostAckedWrites"`
	Metrics         []metric       `json:"metrics"`
	Notes           []string       `json:"notes,omitempty"`
	Budget          *latencyBudget `json:"budget,omitempty"`
}

func (r *runReport) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// number gives every op of the rounds an ID and marks every tenth query for
// the output check.
func number(w *workload) {
	id, queries := 0, 0
	for r := range w.Rounds {
		for c := range w.Rounds[r] {
			for i := range w.Rounds[r][c] {
				o := &w.Rounds[r][c][i]
				id++
				o.ID = id
				if o.Kind == opQuery {
					queries++
					o.Check = queries%10 == 0
				}
			}
		}
	}
}

// roundLimit is how long one round may run: three times its nominal share
// of the run.
func roundLimit(sz sizes) time.Duration {
	return 3 * time.Duration(sz.Seconds) * time.Second / measuredRounds
}

// executedStreams lists the op lists a phase sent, in order, for the
// checks that replay them, and indexes every sample by its op.
func executedStreams(w *workload, ph *phase) ([][]op, map[*op]*sample) {
	streams := [][]op{w.Warmup}
	results := map[*op]*sample{}
	for i := range ph.warm {
		results[ph.warm[i].op] = &ph.warm[i]
	}
	for i, r := range ph.executed {
		streams = append(streams, w.Rounds[r]...)
		rs := ph.all[i]
		for k := range rs.samples {
			results[rs.samples[k].op] = &rs.samples[k]
		}
	}
	return streams, results
}

// verify runs the workload's correctness check on a finished phase and
// records the outcome on rep. For a durable workload that means killing the
// server, restarting it on its data directory and finding every
// acknowledged write; for the others, comparing sampled results with the
// in-process oracle. streams and results are everything the server was
// sent (see executedStreams). It returns the crash recovery time (durable
// only).
func verify(ctx context.Context, bin string, in *instance, w *workload, ph *phase, streams [][]op, results map[*op]*sample, rep *runReport) (recovery time.Duration, err error) {
	rep.Attempted, rep.Failed = ph.attempted, ph.failed
	if w.Durable {
		if recovery, err = in.crashAndRecover(ctx, bin, w.Name); err != nil {
			return 0, err
		}
		lost, first, err := lostAckedWrites(ctx, in.client, acknowledged(w, streams, results))
		if err != nil {
			return 0, fmt.Errorf("after restart: %w", err)
		}
		rep.LostAckedWrites = lost
		if lost > 0 {
			rep.note("lost acknowledged writes: %s", first)
		}
	} else {
		if rep.Check, err = checkOutputs(w, streams, results); err != nil {
			return 0, err
		}
		if !rep.Check.ok() {
			rep.note("output check: first mismatch: %s", rep.Check.First)
		}
	}
	rep.Correct = rep.Failed == 0 && rep.LostAckedWrites == 0 && rep.Check.ok()
	for _, rs := range ph.all {
		for i := range rs.samples {
			if s := &rs.samples[i]; s.err != nil {
				rep.note("first failed op: %s %s: %v", s.op.Kind, s.op.Shape, s.err)
				return recovery, nil
			}
		}
	}
	return recovery, nil
}

// runEndToEnd measures a workload's end-to-end metrics: set-up several
// times, warm-up, the measured rounds, and the correctness check. Nothing
// but the server's own default instrumentation is on.
func runEndToEnd(ctx context.Context, bin string, w *workload, seed int64, sz sizes) (*runReport, error) {
	rep := &runReport{Workload: w.Name, Seed: seed}
	var setups []float64
	var in *instance
	for i := 0; i < setupRepeats; i++ {
		if in != nil {
			in.close(true)
		}
		var err error
		if in, err = bringUp(ctx, bin, w); err != nil {
			return nil, err
		}
		setups = append(setups, in.setup.Seconds())
	}
	defer func() { in.close(false) }()
	ph, err := runPhase(ctx, in, w, roundLimit(sz), sz.measured())
	if err != nil {
		return nil, err
	}
	if ph.rerun > 0 {
		rep.note("%d round(s) measured again: host steal above %.2f", ph.rerun, maxStealShare)
	}
	streams, results := executedStreams(w, ph)
	if _, err := verify(ctx, bin, in, w, ph, streams, results, rep); err != nil {
		return nil, err
	}
	rep.Metrics = endToEnd(w, setups, ph)
	return rep, nil
}
