package main

import (
	"fmt"
	"strings"

	"sqlshare/internal/catalog"
	"sqlshare/internal/engine"
	"sqlshare/internal/ingest"
)

// loadCatalog creates a workload's users, datasets and views directly on a
// catalog, the way the REST handlers would.
func loadCatalog(cat *catalog.Catalog, s *setupPlan) error {
	for _, u := range s.Users {
		if _, err := cat.CreateUser(u, u+"@bench.invalid"); err != nil {
			return err
		}
	}
	for i := range s.Datasets {
		d := &s.Datasets[i]
		if err := uploadInProcess(cat, d.User, d.Name, d.CSV); err != nil {
			return err
		}
		if d.Public {
			if err := cat.SetVisibility(d.User, d.Name, catalog.Public); err != nil {
				return err
			}
		}
	}
	for _, v := range s.Views {
		if _, err := cat.SaveView(v.User, v.Name, v.SQL, catalog.Meta{}); err != nil {
			return fmt.Errorf("save view %s.%s: %w", v.User, v.Name, err)
		}
		if v.Public {
			if err := cat.SetVisibility(v.User, v.Name, catalog.Public); err != nil {
				return err
			}
		}
	}
	return nil
}

func uploadInProcess(cat *catalog.Catalog, user, name string, csv []byte) error {
	rep, err := ingest.LoadBytes(name, csv, ingest.Options{})
	if err != nil {
		return fmt.Errorf("ingest %s.%s: %w", user, name, err)
	}
	_, err = cat.CreateDatasetFromTable(user, name, rep.Table, catalog.Meta{})
	return err
}

// applyWrite performs a write op directly on a catalog.
func applyWrite(cat *catalog.Catalog, o *op) error {
	switch o.Kind {
	case opUpload:
		return uploadInProcess(cat, o.User, o.Name, o.Data)
	case opAppend:
		if o.Data != nil {
			if err := uploadInProcess(cat, o.User, o.Name, o.Data); err != nil {
				return err
			}
		}
		return cat.Append(o.User, o.Target, o.Name)
	case opMaterialize:
		_, err := cat.Materialize(o.User, o.Target, o.Name)
		return err
	}
	return fmt.Errorf("not a write: %s", o.Kind)
}

// hashEngineResult fingerprints an in-process result the way hashResult
// fingerprints a REST response: cells rendered as the status endpoint
// renders them.
func hashEngineResult(res *engine.Result) uint64 {
	rows := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for k, v := range row {
			cells[k] = v.String()
		}
		rows[i] = cells
	}
	return hashResult(res.ColumnNames(), rows)
}

// checkResult is the outcome of the output check.
type checkResult struct {
	Checked    int `json:"checked"`
	Mismatched int `json:"mismatched"`
	// Skipped counts marked queries that could not be judged: a write to a
	// dataset they read was in flight while they ran, so which state they
	// should have seen is not defined.
	Skipped int    `json:"skipped"`
	First   string `json:"firstMismatch,omitempty"`
}

func (c checkResult) ok() bool { return c.Mismatched == 0 }

// checkOutputs replays everything the server was sent, in stream order, on
// a fresh catalog driven the slowest and simplest way the engine has — row
// at a time, one worker, no cache — and compares the fingerprint of every
// marked query with the one the server returned over REST.
//
// streams are the op lists the server executed, in order: the warm-up, then
// each round. results maps an executed op to its sample.
func checkOutputs(w *workload, streams [][]op, results map[*op]*sample) (checkResult, error) {
	var out checkResult
	defer engine.SetVectorizedEnabled(engine.SetVectorizedEnabled(false))
	cat := catalog.New()
	if err := loadCatalog(cat, &w.Setup); err != nil {
		return out, fmt.Errorf("oracle set-up: %w", err)
	}
	for _, stream := range streams {
		for i := range stream {
			o := &stream[i]
			s := results[o]
			if o.isWrite() {
				if s != nil && s.err != nil {
					continue // the server refused it, so the oracle skips it too
				}
				if err := applyWrite(cat, o); err != nil {
					return out, fmt.Errorf("oracle %s %s: %w", o.Kind, o.Name, err)
				}
				continue
			}
			if !o.Check || s == nil || s.err != nil {
				continue
			}
			if racedWrite(stream, i, results) {
				out.Skipped++
				continue
			}
			res, _, err := cat.QueryWithOptions(o.User, o.SQL, catalog.QueryOptions{Parallelism: 1, NoCache: true})
			if err != nil {
				return out, fmt.Errorf("oracle query %q: %w", o.SQL, err)
			}
			out.Checked++
			if hashEngineResult(res) != s.hash {
				out.Mismatched++
				if out.First == "" {
					out.First = fmt.Sprintf("%s as %s", o.SQL, o.User)
				}
			}
		}
	}
	return out, nil
}

// racedWrite reports whether some write in the stream touches a dataset the
// query at index qi reads and did not clearly happen on the query's side of
// it: a write earlier in the stream must have completed before the query
// was sent, a later one must have been sent after the query completed.
// Closed-loop read-only streams have no writes, so this is always false
// for them.
func racedWrite(stream []op, qi int, results map[*op]*sample) bool {
	q := results[&stream[qi]]
	for i := range stream {
		wr := &stream[i]
		if !wr.isWrite() || wr.Target == "" || !strings.Contains(stream[qi].SQL, wr.Target+"]") {
			continue
		}
		ws := results[wr]
		if ws == nil {
			continue // never sent: the round was cut short
		}
		if i < qi && ws.done.After(q.sent) {
			return true
		}
		if i > qi && ws.sent.Before(q.done) {
			return true
		}
	}
	return false
}
