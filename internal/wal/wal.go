// Package wal implements the durable persistence layer of the SQLShare
// reproduction. The production system ran for years on SQL Azure (paper
// §3.4): users uploaded datasets once and queried them for the rest of the
// study, which is only possible when the catalog — base tables, views,
// users, grants — survives process death. This package supplies that
// property for the in-memory reproduction with the classic recipe:
//
//   - every catalog mutation is encoded as a typed Record and appended to a
//     length-prefixed, CRC-checksummed write-ahead log before it is applied
//     in memory (append-then-apply);
//   - a single fsync goroutine batches concurrent appenders (group commit),
//     amortizing the dominant fsync cost under load;
//   - a checkpoint writes the full catalog state as a snapshot file and
//     rotates the log, bounding recovery time;
//   - on startup, recovery restores the latest valid snapshot and replays
//     the log tail, tolerating a torn final record exactly like the query-
//     history JSONL reader does.
//
// The package knows nothing about the catalog's semantics: records carry
// plain values (and tables, which storage encodes and decodes), and the
// catalog owns the replay constructors that turn records back into state.
// Nor does it know the table format: a record on the live path carries its
// table already encoded by storage.Table.AppendJSON, and a snapshot holds
// references to the catalog's immutable tables and has each encode itself
// as the file is streamed out.
package wal

import (
	"time"

	"sqlshare/internal/storage"
)

// Op names the catalog mutation a record encodes. The values are stable:
// they are written to disk.
const (
	OpCreateUser         = "create_user"
	OpCreateDataset      = "create_dataset"
	OpSaveView           = "save_view"
	OpAppend             = "append"
	OpMaterialize        = "materialize"
	OpMaterializeInPlace = "materialize_in_place"
	OpDeleteDataset      = "delete_dataset"
	OpSetVisibility      = "set_visibility"
	OpShare              = "share"
	OpUpdateMeta         = "update_meta"
	OpMintDOI            = "mint_doi"
	OpSaveMacro          = "save_macro"
)

// Record is one journaled catalog mutation. Exactly one payload pointer is
// non-nil, selected by Op; LSN is assigned by the Writer at append time and
// is strictly increasing across the log's life, surviving rotation.
type Record struct {
	LSN  uint64    `json:"lsn"`
	Time time.Time `json:"ts"`
	Op   string    `json:"op"`

	CreateUser    *CreateUser    `json:"createUser,omitempty"`
	CreateDataset *CreateDataset `json:"createDataset,omitempty"`
	SaveView      *SaveView      `json:"saveView,omitempty"`
	Append        *AppendView    `json:"append,omitempty"`
	Materialize   *Materialize   `json:"materialize,omitempty"`
	DatasetOp     *DatasetOp     `json:"datasetOp,omitempty"`
	SaveMacro     *SaveMacro     `json:"saveMacro,omitempty"`
}

// CreateUser registers a user.
type CreateUser struct {
	Name  string `json:"name"`
	Email string `json:"email,omitempty"`
}

// CreateDataset is the upload path: the ingested table is journaled in full
// so replay does not depend on the original file. Table is the decoded form
// replay reads. On the live mutation path LiveTable carries the
// already-built in-memory table and TableJSON its encoding
// (storage.Table.AppendJSON), which EncodeRecord writes as "table"; neither
// is decoded.
type CreateDataset struct {
	Owner       string             `json:"owner"`
	Name        string             `json:"name"`
	Description string             `json:"description,omitempty"`
	Tags        []string           `json:"tags,omitempty"`
	Table       *storage.TableData `json:"table"`

	LiveTable *storage.Table `json:"-"`
	TableJSON []byte         `json:"-"`
}

// SaveView creates a derived dataset from a definition.
type SaveView struct {
	Owner       string   `json:"owner"`
	Name        string   `json:"name"`
	SQL         string   `json:"sql"`
	Description string   `json:"description,omitempty"`
	Tags        []string `json:"tags,omitempty"`
}

// AppendView rewrites Dataset as (Dataset) UNION ALL (Source). Both names
// are resolved full names so replay is context-independent.
type AppendView struct {
	Owner   string `json:"owner"`
	Dataset string `json:"dataset"`
	Source  string `json:"source"`
}

// Materialize snapshots a view's contents into a physical table — as a new
// dataset (InPlace false; Name is the snapshot dataset name) or by swapping
// the view's own definition (InPlace true; Name is the dataset's full
// name). The computed table is journaled so replay does not re-execute the
// query against a clock-dependent engine. Table, LiveTable and TableJSON
// are as in CreateDataset.
type Materialize struct {
	Owner   string             `json:"owner"`
	Source  string             `json:"source,omitempty"`
	Name    string             `json:"name"`
	InPlace bool               `json:"inPlace,omitempty"`
	Table   *storage.TableData `json:"table"`

	LiveTable *storage.Table `json:"-"`
	TableJSON []byte         `json:"-"`
}

// DatasetOp covers the small single-dataset mutations: delete, visibility,
// share, metadata edits and DOI minting. Dataset is a resolved full name.
type DatasetOp struct {
	Owner       string   `json:"owner"`
	Dataset     string   `json:"dataset"`
	User        string   `json:"user,omitempty"`   // share grantee
	Public      bool     `json:"public,omitempty"` // set_visibility
	Description string   `json:"description,omitempty"`
	Tags        []string `json:"tags,omitempty"`
	DOI         string   `json:"doi,omitempty"`
}

// SaveMacro stores a parameterized query macro.
type SaveMacro struct {
	Owner    string `json:"owner"`
	Name     string `json:"name"`
	Template string `json:"template"`
}
