// Package corpusio serializes a workload corpus to the release format —
// the repository's equivalent of the query-log dataset the paper publishes
// (§4: "with permission from the users, we are releasing this dataset
// publicly"). The release bundles the dataset catalog (definitions, owners,
// sharing state) with the query log, so every analysis in internal/workload
// can be recomputed from the file alone. A logged query is written as its
// history JSONL line (history.Entry's encoding, the line a server's
// -history-log holds): SQL text, author, timestamp, the compile/execute
// split, result size, digest, and the JSON plan from which Phase 2's
// metadata is rebuilt on import. The package knows no query record of its
// own, except to read version-1 files.
package corpusio

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"sqlshare/internal/catalog"
	"sqlshare/internal/plan"
	"sqlshare/internal/workload"
)

// FormatVersion identifies the release file format. Version 2 writes each
// query as its history line, and imports a line of any layout the history
// decoder reads; version 1 wrote a query record of its own
// (queryRecordV1), and still imports.
const FormatVersion = 2

// Header is the first record of a release file.
type Header struct {
	Format   int       `json:"format"`
	Corpus   string    `json:"corpus"`
	Exported time.Time `json:"exported"`
	Users    int       `json:"users"`
	Datasets int       `json:"datasets"`
	Queries  int       `json:"queries"`
}

// DatasetRecord is one dataset of the release catalog.
type DatasetRecord struct {
	Kind        string   `json:"kind"` // always "dataset"
	Owner       string   `json:"owner"`
	Name        string   `json:"name"`
	SQL         string   `json:"sql"`
	Description string   `json:"description,omitempty"`
	Tags        []string `json:"tags,omitempty"`
	IsWrapper   bool     `json:"isWrapper"`
	Public      bool     `json:"public"`
	SharedWith  []string `json:"sharedWith,omitempty"`
	Created     int64    `json:"created"` // unix seconds
	Deleted     bool     `json:"deleted,omitempty"`
}

// Export writes the corpus as gzip-compressed JSON lines: one Header, then
// one DatasetRecord per dataset (including deleted ones — lifetimes need
// them), then each log entry's history line in execution order.
func Export(w io.Writer, c *workload.Corpus) error {
	gz := gzip.NewWriter(w)
	enc := json.NewEncoder(gz)
	datasets := c.Catalog.Datasets(true)
	h := Header{
		Format:   FormatVersion,
		Corpus:   c.Name,
		Exported: time.Now().UTC(),
		Users:    len(c.Catalog.Users()),
		Datasets: len(datasets),
		Queries:  len(c.Entries),
	}
	if err := enc.Encode(h); err != nil {
		return err
	}
	for _, ds := range datasets {
		rec := DatasetRecord{
			Kind:        "dataset",
			Owner:       ds.Owner,
			Name:        ds.Name,
			SQL:         ds.SQL,
			Description: ds.Meta.Description,
			Tags:        ds.Meta.Tags,
			IsWrapper:   ds.IsWrapper,
			Public:      ds.Visibility == catalog.Public,
			Created:     ds.Created.Unix(),
			Deleted:     ds.Deleted,
		}
		for u := range ds.SharedWith {
			rec.SharedWith = append(rec.SharedWith, u)
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	for _, e := range c.Entries {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return gz.Close()
}

// Release is a loaded corpus file. It does not reconstruct executable
// tables (the release carries logs and definitions, not data, exactly as
// the paper's release did), but it supports every log-level analysis.
type Release struct {
	Header   Header
	Datasets []DatasetRecord
	// Entries is the query log, decoded as the history log is read back, so
	// the workload package's log-level analyses (length, entropy, operator
	// frequency, lifetimes, coverage, classification, reuse) run unchanged.
	Entries []*catalog.LogEntry
}

// Import reads a release file written by Export.
func Import(r io.Reader) (*Release, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("corpusio: %w", err)
	}
	defer gz.Close()
	sc := bufio.NewScanner(gz)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	rel := &Release{}
	first := true
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			if err := json.Unmarshal([]byte(line), &rel.Header); err != nil {
				return nil, fmt.Errorf("corpusio: bad header: %w", err)
			}
			if rel.Header.Format != 1 && rel.Header.Format != FormatVersion {
				return nil, fmt.Errorf("corpusio: unsupported format %d", rel.Header.Format)
			}
			first = false
			continue
		}
		var kind struct{ Kind string }
		if err := json.Unmarshal([]byte(line), &kind); err != nil {
			return nil, fmt.Errorf("corpusio: bad record: %w", err)
		}
		switch {
		case kind.Kind == "dataset":
			var rec DatasetRecord
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				return nil, err
			}
			rel.Datasets = append(rel.Datasets, rec)
		case kind.Kind == "" && rel.Header.Format == FormatVersion:
			e := &catalog.LogEntry{}
			if err := json.Unmarshal([]byte(line), e); err != nil {
				return nil, err
			}
			rel.Entries = append(rel.Entries, e)
		case kind.Kind == "query" && rel.Header.Format == 1:
			var rec queryRecordV1
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				return nil, err
			}
			rel.Entries = append(rel.Entries, rec.entry())
		default:
			return nil, fmt.Errorf("corpusio: unknown record kind %q", kind.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if first {
		return nil, fmt.Errorf("corpusio: empty file")
	}
	return rel, nil
}

// queryRecordV1 is a logged query of a version-1 release. Nothing writes
// it any more; its times are whole seconds and it has no digest, no phase
// split and no result size.
type queryRecordV1 struct {
	ID        int             `json:"id"`
	User      string          `json:"user"`
	SQL       string          `json:"sql"`
	Time      int64           `json:"time"` // unix seconds
	RuntimeMS float64         `json:"runtimeMs"`
	Datasets  []string        `json:"datasets,omitempty"`
	Error     string          `json:"error,omitempty"`
	Rows      int             `json:"rows"`
	Plan      *plan.QueryPlan `json:"plan,omitempty"`
	Meta      *plan.Metadata  `json:"meta,omitempty"`
}

func (q *queryRecordV1) entry() *catalog.LogEntry {
	return &catalog.LogEntry{
		ID:           q.ID,
		User:         q.User,
		SQL:          q.SQL,
		Time:         time.Unix(q.Time, 0).UTC(),
		Runtime:      time.Duration(q.RuntimeMS * float64(time.Millisecond)),
		Datasets:     q.Datasets,
		Plan:         q.Plan,
		Meta:         q.Meta,
		Err:          q.Error,
		RowsReturned: q.Rows,
	}
}
