package catalog

import (
	"context"
	"fmt"

	"sqlshare/internal/obs"
	"sqlshare/internal/sqlparser"
	"sqlshare/internal/storage"
	"sqlshare/internal/wal"
)

// This file is the catalog side of the write-ahead-log contract. Every
// mutating operation follows the same shape, holding the writer mutex:
//
//  1. validate — all fallible work (name checks, parsing, compilation,
//     quota) happens first, against the published state, with no state
//     touched; a materialization runs its query before taking the mutex
//     and validates again under it;
//  2. journal — the typed record is appended to the WAL and fsynced; an
//     append failure aborts the mutation with no in-memory effect. A
//     table the record carries is already encoded (storage's AppendJSON),
//     so the mutex covers framing the record and waiting for its fsync,
//     not the table's cells;
//  3. apply and publish — the in-memory effect is produced, on a copy of
//     the published state, by the same replay constructor recovery uses,
//     so a record on disk and the mutation it describes can never diverge;
//     the copy is then published. Apply only rewrites definitions and
//     bumps versions; it executes nothing (make lint-bind), so replay does
//     no read work — a preview renders on its next read (preview.go).
//
// A record therefore exists on disk if and only if its effect was (or will
// be, after recovery) applied — the append-then-apply invariant the crash
// tests pin down — and no reader sees an effect before its record is
// durable.

// Journal is the durable sink for catalog mutations. Append must return
// only once the record is durable; returning an error aborts the mutation.
// Mutations call Append while holding the catalog's writer mutex, so
// records are journaled in exactly the order their effects are published.
type Journal interface {
	Append(rec *wal.Record) error
}

// SetJournal attaches the durable journal. Pass nil to detach (mutations
// then apply in memory only — the seed behaviour). Call before serving
// traffic.
func (c *Catalog) SetJournal(j Journal) { c.journal = j }

// commit journals rec (when a journal is attached), applies it to a copy of
// the published state and publishes the copy, which it returns. Called with
// c.mu held, after all validation passed: an apply failure after a
// successful append would leave a durable record without its effect, which
// recovery would then resurrect — so apply failures here are programming
// errors and are surfaced loudly.
//
// When ctx carries an active trace, the append is recorded as a
// "wal.append" span. Append returns only once the record is durable
// (group commit included), so the span duration covers the fsync wait —
// the number an operator needs when a mutation is slow.
func (c *Catalog) commit(ctx context.Context, rec *wal.Record) (*state, error) {
	if c.journal != nil {
		sp := obs.ChildSpan(ctx, "wal.append")
		sp.SetAttr("op", string(rec.Op))
		err := c.journal.Append(rec)
		sp.EndErr(err)
		if err != nil {
			return nil, fmt.Errorf("catalog: journal append: %w", err)
		}
	}
	next := *c.state.Load()
	next.shared = true
	if err := next.apply(rec); err != nil {
		return nil, fmt.Errorf("catalog: apply journaled %s: %w", rec.Op, err)
	}
	c.state.Store(&next)
	return &next, nil
}

// apply is the replay constructor dispatch: it produces the in-memory
// effect of one journaled record in s, both on the live mutation path
// (after validation, on a commit's copy) and during recovery (where the log
// itself is the validated history).
func (s *state) apply(rec *wal.Record) error {
	switch rec.Op {
	case wal.OpCreateUser:
		return s.applyCreateUser(rec)
	case wal.OpCreateDataset:
		return s.applyCreateDataset(rec)
	case wal.OpSaveView:
		return s.applySaveView(rec)
	case wal.OpAppend:
		return s.applyAppend(rec)
	case wal.OpMaterialize:
		return s.applyMaterialize(rec)
	case wal.OpMaterializeInPlace:
		return s.applyMaterializeInPlace(rec)
	case wal.OpDeleteDataset, wal.OpSetVisibility, wal.OpShare, wal.OpUpdateMeta, wal.OpMintDOI:
		return s.applyDatasetOp(rec)
	case wal.OpSaveMacro:
		return s.applySaveMacro(rec)
	default:
		return fmt.Errorf("catalog: unknown journal op %q", rec.Op)
	}
}

func (s *state) applyCreateUser(rec *wal.Record) error {
	p := rec.CreateUser
	if p == nil || p.Name == "" {
		return fmt.Errorf("catalog: malformed %s record", rec.Op)
	}
	if _, ok := s.users[p.Name]; ok {
		return fmt.Errorf("catalog: user %q already exists", p.Name)
	}
	s.users = writable(s, s.users)
	s.users[p.Name] = &User{Name: p.Name, Email: p.Email, Created: rec.Time}
	return nil
}

// recordTable returns the live table carried by the mutation path, or
// rebuilds it from the serialized form during replay.
func recordTable(live *storage.Table, data *storage.TableData) (*storage.Table, error) {
	if live != nil {
		return live, nil
	}
	if data == nil {
		return nil, fmt.Errorf("catalog: record carries no table")
	}
	return data.Table()
}

func (s *state) applyCreateDataset(rec *wal.Record) error {
	p := rec.CreateDataset
	if p == nil || p.Owner == "" || p.Name == "" {
		return fmt.Errorf("catalog: malformed %s record", rec.Op)
	}
	return s.installWrapper(rec, p.Owner, p.Name, p.LiveTable, p.Table,
		Meta{Description: p.Description, Tags: p.Tags})
}

// installWrapper stores a record's table as the hidden base table of
// owner.name and creates the trivial wrapper view over it: what an upload
// and a snapshot both are.
func (s *state) installWrapper(rec *wal.Record, owner, name string, live *storage.Table, data *storage.TableData, meta Meta) error {
	tbl, err := recordTable(live, data)
	if err != nil {
		return err
	}
	full := owner + "." + name
	baseName := basePrefix + full
	viewSQL := fmt.Sprintf("SELECT * FROM [%s]", baseName)
	q, err := sqlparser.Parse(viewSQL)
	if err != nil {
		return fmt.Errorf("catalog: wrapper view: %w", err)
	}
	s.baseTables = writable(s, s.baseTables)
	s.baseTables[baseName] = tbl
	s.put(&Dataset{
		Owner: owner, Name: name,
		SQL: viewSQL, Query: q,
		Meta:       meta,
		IsWrapper:  true,
		SharedWith: map[string]bool{},
		Created:    rec.Time,
	})
	s.bumpVersion(full)
	return nil
}

// put stores ds, a new record or a changed clone, under its full name.
func (s *state) put(ds *Dataset) {
	s.datasets = writable(s, s.datasets)
	s.datasets[ds.FullName()] = ds
}

func (s *state) applySaveView(rec *wal.Record) error {
	p := rec.SaveView
	if p == nil || p.Owner == "" || p.Name == "" {
		return fmt.Errorf("catalog: malformed %s record", rec.Op)
	}
	q, err := sqlparser.Parse(p.SQL)
	if err != nil {
		return err
	}
	s.put(&Dataset{
		Owner: p.Owner, Name: p.Name,
		SQL: p.SQL, Query: q,
		Meta:       Meta{Description: p.Description, Tags: p.Tags},
		SharedWith: map[string]bool{},
		Created:    rec.Time,
	})
	s.bumpVersion(p.Owner + "." + p.Name)
	return nil
}

func (s *state) applyAppend(rec *wal.Record) error {
	p := rec.Append
	if p == nil {
		return fmt.Errorf("catalog: malformed %s record", rec.Op)
	}
	ds, err := s.lookup(p.Owner, p.Dataset)
	if err != nil {
		return err
	}
	nds, err := s.lookup(p.Owner, p.Source)
	if err != nil {
		return err
	}
	sql := fmt.Sprintf("(%s) UNION ALL (SELECT * FROM [%s])", ds.SQL, nds.FullName())
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return err
	}
	ds = ds.clone()
	ds.SQL = sql
	ds.Query = q
	ds.IsWrapper = false
	s.put(ds)
	s.bumpVersion(ds.FullName())
	return nil
}

func (s *state) applyMaterialize(rec *wal.Record) error {
	p := rec.Materialize
	if p == nil || p.Owner == "" || p.Name == "" {
		return fmt.Errorf("catalog: malformed %s record", rec.Op)
	}
	return s.installWrapper(rec, p.Owner, p.Name, p.LiveTable, p.Table,
		Meta{Description: "snapshot of " + p.Source})
}

func (s *state) applyMaterializeInPlace(rec *wal.Record) error {
	p := rec.Materialize
	if p == nil || !p.InPlace {
		return fmt.Errorf("catalog: malformed %s record", rec.Op)
	}
	ds, err := s.lookup(p.Owner, p.Name)
	if err != nil {
		return err
	}
	tbl, err := recordTable(p.LiveTable, p.Table)
	if err != nil {
		return err
	}
	baseName := basePrefix + ds.FullName() + "#mat"
	viewSQL := fmt.Sprintf("SELECT * FROM [%s]", baseName)
	q, err := sqlparser.Parse(viewSQL)
	if err != nil {
		return err
	}
	s.baseTables = writable(s, s.baseTables)
	s.baseTables[baseName] = tbl
	ds = ds.clone()
	ds.OriginalSQL = ds.SQL
	ds.SQL = viewSQL
	ds.Query = q
	ds.Materialized = true
	s.put(ds)
	// The snapshot is row-identical at swap time, but the definition's
	// dependency closure changed shape, so stamps referencing the old
	// upstream names must be re-fenced.
	s.bumpVersion(ds.FullName())
	return nil
}

func (s *state) applyDatasetOp(rec *wal.Record) error {
	p := rec.DatasetOp
	if p == nil {
		return fmt.Errorf("catalog: malformed %s record", rec.Op)
	}
	ds, err := s.lookup(p.Owner, p.Dataset)
	if err != nil {
		return err
	}
	ds = ds.clone()
	switch rec.Op {
	case wal.OpDeleteDataset:
		ds.Deleted = true
		// Deletion changes what dependents resolve to (broken or shadowed
		// references), so it is a content change for fencing purposes. The
		// other ops in this family change only access, which every query
		// re-checks before the cache is probed, so they do not bump.
		s.bumpVersion(ds.FullName())
	case wal.OpSetVisibility:
		if p.Public {
			ds.Visibility = Public
		} else {
			ds.Visibility = Private
		}
	case wal.OpShare:
		if p.User == "" {
			return fmt.Errorf("catalog: malformed %s record", rec.Op)
		}
		ds.SharedWith[p.User] = true
	case wal.OpUpdateMeta:
		ds.Meta = Meta{Description: p.Description, Tags: p.Tags}
	case wal.OpMintDOI:
		if p.DOI == "" {
			return fmt.Errorf("catalog: malformed %s record", rec.Op)
		}
		ds.DOI = p.DOI
	}
	s.put(ds)
	return nil
}

func (s *state) applySaveMacro(rec *wal.Record) error {
	p := rec.SaveMacro
	if p == nil {
		return fmt.Errorf("catalog: malformed %s record", rec.Op)
	}
	mac, err := parseMacro(p.Owner, p.Name, p.Template)
	if err != nil {
		return err
	}
	s.macros = writable(s, s.macros)
	s.macros[p.Owner+"."+p.Name] = mac
	return nil
}
