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
// mutating operation follows the same shape:
//
//  1. validate — all fallible work (name checks, parsing, compilation,
//     quota, query execution) happens first, with no state touched;
//  2. journal — the typed record is appended to the WAL and fsynced; an
//     append failure aborts the mutation with no in-memory effect;
//  3. apply — the in-memory effect is produced by the same replay
//     constructor recovery uses, so a record on disk and the mutation it
//     describes can never diverge. Apply only rewrites definitions and
//     bumps versions; it executes nothing (make lint-bind), so replay and
//     followers do no read work — a preview renders on its next read
//     (preview.go).
//
// A record therefore exists on disk if and only if its effect was (or will
// be, after recovery) applied — the append-then-apply invariant the crash
// tests pin down.

// Journal is the durable sink for catalog mutations. Append must return
// only once the record is durable; returning an error aborts the mutation.
// Mutations call Append while holding the catalog write lock, so records
// are journaled in exactly the order their effects apply.
type Journal interface {
	Append(rec *wal.Record) error
}

// SetJournal attaches the durable journal. Pass nil to detach (mutations
// then apply in memory only — the seed behaviour).
func (c *Catalog) SetJournal(j Journal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = j
}

// commitLocked journals rec (when a journal is attached) and applies it.
// Must be called with the write lock held, after all validation passed: an
// apply failure after a successful append would leave a durable record
// without its effect, which recovery would then resurrect — so apply
// failures here are programming errors and are surfaced loudly.
//
// When ctx carries an active trace, the append is recorded as a
// "wal.append" span. Append returns only once the record is durable
// (group commit included), so the span duration covers the fsync wait —
// the number an operator needs when a mutation is slow.
func (c *Catalog) commitLocked(ctx context.Context, rec *wal.Record) error {
	if c.journal != nil {
		sp := obs.ChildSpan(ctx, "wal.append")
		sp.SetAttr("op", string(rec.Op))
		err := c.journal.Append(rec)
		sp.EndErr(err)
		if err != nil {
			return fmt.Errorf("catalog: journal append: %w", err)
		}
	}
	if err := c.applyLocked(rec); err != nil {
		return fmt.Errorf("catalog: apply journaled %s: %w", rec.Op, err)
	}
	return nil
}

// applyLocked is the replay constructor dispatch: it produces the in-memory
// effect of one journaled record. Called with the write lock held, both on
// the live mutation path (after validation) and during recovery (where the
// log itself is the validated history).
func (c *Catalog) applyLocked(rec *wal.Record) error {
	switch rec.Op {
	case wal.OpCreateUser:
		return c.applyCreateUser(rec)
	case wal.OpCreateDataset:
		return c.applyCreateDataset(rec)
	case wal.OpSaveView:
		return c.applySaveView(rec)
	case wal.OpAppend:
		return c.applyAppend(rec)
	case wal.OpMaterialize:
		return c.applyMaterialize(rec)
	case wal.OpMaterializeInPlace:
		return c.applyMaterializeInPlace(rec)
	case wal.OpDeleteDataset, wal.OpSetVisibility, wal.OpShare, wal.OpUpdateMeta, wal.OpMintDOI:
		return c.applyDatasetOp(rec)
	case wal.OpSaveMacro:
		return c.applySaveMacro(rec)
	case wal.OpShardMap:
		return c.applyShardMap(rec)
	default:
		return fmt.Errorf("catalog: unknown journal op %q", rec.Op)
	}
}

func (c *Catalog) applyCreateUser(rec *wal.Record) error {
	p := rec.CreateUser
	if p == nil || p.Name == "" {
		return fmt.Errorf("catalog: malformed %s record", rec.Op)
	}
	if _, ok := c.users[p.Name]; ok {
		return fmt.Errorf("catalog: user %q already exists", p.Name)
	}
	c.users[p.Name] = &User{Name: p.Name, Email: p.Email, Created: rec.Time}
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

func (c *Catalog) applyCreateDataset(rec *wal.Record) error {
	p := rec.CreateDataset
	if p == nil || p.Owner == "" || p.Name == "" {
		return fmt.Errorf("catalog: malformed %s record", rec.Op)
	}
	return c.installWrapperLocked(rec, p.Owner, p.Name, p.LiveTable, p.Table,
		Meta{Description: p.Description, Tags: p.Tags})
}

// installWrapperLocked stores a record's table as the hidden base table of
// owner.name and creates the trivial wrapper view over it: what an upload
// and a snapshot both are.
func (c *Catalog) installWrapperLocked(rec *wal.Record, owner, name string, live *storage.Table, data *storage.TableData, meta Meta) error {
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
	c.baseTables[baseName] = tbl
	c.datasets[full] = &Dataset{
		Owner: owner, Name: name,
		SQL: viewSQL, Query: q,
		Meta:       meta,
		IsWrapper:  true,
		SharedWith: map[string]bool{},
		Created:    rec.Time,
	}
	c.bumpVersionLocked(full)
	return nil
}

func (c *Catalog) applySaveView(rec *wal.Record) error {
	p := rec.SaveView
	if p == nil || p.Owner == "" || p.Name == "" {
		return fmt.Errorf("catalog: malformed %s record", rec.Op)
	}
	q, err := sqlparser.Parse(p.SQL)
	if err != nil {
		return err
	}
	c.datasets[p.Owner+"."+p.Name] = &Dataset{
		Owner: p.Owner, Name: p.Name,
		SQL: p.SQL, Query: q,
		Meta:       Meta{Description: p.Description, Tags: p.Tags},
		SharedWith: map[string]bool{},
		Created:    rec.Time,
	}
	c.bumpVersionLocked(p.Owner + "." + p.Name)
	return nil
}

func (c *Catalog) applyAppend(rec *wal.Record) error {
	p := rec.Append
	if p == nil {
		return fmt.Errorf("catalog: malformed %s record", rec.Op)
	}
	ds, err := c.lookupLocked(p.Owner, p.Dataset)
	if err != nil {
		return err
	}
	nds, err := c.lookupLocked(p.Owner, p.Source)
	if err != nil {
		return err
	}
	sql := fmt.Sprintf("(%s) UNION ALL (SELECT * FROM [%s])", ds.SQL, nds.FullName())
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return err
	}
	ds.SQL = sql
	ds.Query = q
	ds.IsWrapper = false
	c.bumpVersionLocked(ds.FullName())
	return nil
}

func (c *Catalog) applyMaterialize(rec *wal.Record) error {
	p := rec.Materialize
	if p == nil || p.Owner == "" || p.Name == "" {
		return fmt.Errorf("catalog: malformed %s record", rec.Op)
	}
	return c.installWrapperLocked(rec, p.Owner, p.Name, p.LiveTable, p.Table,
		Meta{Description: "snapshot of " + p.Source})
}

func (c *Catalog) applyMaterializeInPlace(rec *wal.Record) error {
	p := rec.Materialize
	if p == nil || !p.InPlace {
		return fmt.Errorf("catalog: malformed %s record", rec.Op)
	}
	ds, err := c.lookupLocked(p.Owner, p.Name)
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
	c.baseTables[baseName] = tbl
	ds.OriginalSQL = ds.SQL
	ds.SQL = viewSQL
	ds.Query = q
	ds.Materialized = true
	// The snapshot is row-identical at swap time, but the definition's
	// dependency closure changed shape, so stamps referencing the old
	// upstream names must be re-fenced.
	c.bumpVersionLocked(ds.FullName())
	return nil
}

func (c *Catalog) applyDatasetOp(rec *wal.Record) error {
	p := rec.DatasetOp
	if p == nil {
		return fmt.Errorf("catalog: malformed %s record", rec.Op)
	}
	ds, err := c.lookupLocked(p.Owner, p.Dataset)
	if err != nil {
		return err
	}
	switch rec.Op {
	case wal.OpDeleteDataset:
		ds.Deleted = true
		// Deletion changes what dependents resolve to (broken or shadowed
		// references), so it is a content change for fencing purposes. The
		// other ops in this family change only access, which every query
		// re-checks before the cache is probed, so they do not bump.
		c.bumpVersionLocked(ds.FullName())
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
	return nil
}

func (c *Catalog) applySaveMacro(rec *wal.Record) error {
	p := rec.SaveMacro
	if p == nil {
		return fmt.Errorf("catalog: malformed %s record", rec.Op)
	}
	mac, err := parseMacro(p.Owner, p.Name, p.Template)
	if err != nil {
		return err
	}
	c.macros[p.Owner+"."+p.Name] = mac
	return nil
}
