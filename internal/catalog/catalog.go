// Package catalog implements the SQLShare data model (paper §3.2, Fig 2):
// every dataset is a named view with metadata and a preview; uploads
// create a hidden physical base table plus a trivial wrapper view; derived
// datasets are views over other datasets; datasets are read-only and are
// "modified" only by rewriting their view definition (UNION-append) or by
// materializing a snapshot. The catalog also owns users, permissions with
// ownership-chain semantics, and the query log that is the paper's corpus.
package catalog

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/history"
	"sqlshare/internal/obs"
	"sqlshare/internal/ops"
	"sqlshare/internal/qcache"
	"sqlshare/internal/sqlparser"
	"sqlshare/internal/storage"
	"sqlshare/internal/wal"
)

// basePrefix namespaces hidden physical base tables. Users never reference
// these directly; only wrapper views do.
const basePrefix = "~base:"

// PreviewRows is how many rows of each dataset a preview shows.
const PreviewRows = 100

// Visibility is a dataset's sharing state.
type Visibility uint8

// Visibility states: datasets are private by default (§5.2).
const (
	Private Visibility = iota
	Public
)

// User is a registered SQLShare user.
type User struct {
	Name    string
	Email   string
	Created time.Time
}

// Meta is the user-editable dataset metadata: a short name is the dataset
// identity; description and tags support search and organization.
type Meta struct {
	Description string
	Tags        []string
}

// Dataset is the unit of the SQLShare data model: a 3-tuple of (sql,
// metadata, preview) per §3.2 — the preview is a read of the first two
// (Catalog.Preview). The catalog hands out copies, never its own record.
type Dataset struct {
	// Owner and Name identify the dataset; FullName is "owner.name".
	Owner string
	Name  string
	// SQL is the view definition text; Query is its parsed form.
	SQL   string
	Query sqlparser.QueryExpr
	Meta  Meta
	// IsWrapper marks the trivial SELECT-*-over-base-table view created at
	// upload time. Non-wrapper datasets are "derived" (the paper's
	// non-trivial views).
	IsWrapper bool
	// Visibility and SharedWith implement dataset-level permissions.
	Visibility Visibility
	SharedWith map[string]bool
	// Created/Deleted bound the dataset's life; deleted datasets stay in
	// the catalog (hidden) so lifetime analyses remain possible.
	Created time.Time
	Deleted bool
	// DOI is the minted citation identifier, if any (§5.2).
	DOI string
	// Materialized marks a view whose definition was swapped for a
	// physical snapshot by MaterializeInPlace; OriginalSQL preserves the
	// logical definition for provenance.
	Materialized bool
	OriginalSQL  string
}

// FullName returns the canonical "owner.name" identity.
func (d *Dataset) FullName() string { return d.Owner + "." + d.Name }

// clone is the copy the catalog hands out: taken under the lock, so a
// caller reads its fields while later mutations rewrite the catalog's own.
func (d *Dataset) clone() *Dataset {
	cp := *d
	cp.SharedWith = maps.Clone(d.SharedWith)
	return &cp
}

// Catalog is the SQLShare metadata store.
type Catalog struct {
	mu         sync.RWMutex
	users      map[string]*User
	datasets   map[string]*Dataset // key: FullName
	baseTables map[string]*storage.Table
	macros     map[string]*Macro // key: owner.name
	clock      func() time.Time
	quotaBytes int64
	// metrics is the optional observability bundle; nil means no
	// reporting. Held in an atomic pointer so SetMetrics is safe while
	// queries run.
	metrics atomic.Pointer[obs.PlatformMetrics]
	// history is the query log and its folds (see history.go); never nil.
	// It has its own lock, so a finished query records its entry while
	// others still run under mu's read lock.
	history atomic.Pointer[history.History]
	// journal is the optional durable mutation log (see journal.go); nil
	// means in-memory only. Guarded by mu.
	journal Journal
	// versions holds the per-dataset monotonic content counters that fence
	// the result cache and the preview memo (see version.go).
	// Guarded by mu; entries are never removed, even on dataset delete.
	versions map[string]uint64
	// shardMapEpoch/shardMap hold the cluster placement table, stored
	// opaquely (raw JSON, see shardmap.go) and journaled like every other
	// mutation so live == recovered. Guarded by mu.
	shardMapEpoch uint64
	shardMap      json.RawMessage
	// resultCache is the optional version-fenced result cache; nil
	// means every query executes. Atomic so attaching is safe mid-query.
	resultCache atomic.Pointer[qcache.Cache]
	// liveOps is the optional in-flight query registry; nil means queries
	// run unregistered (no live listing, no kill, no memory counters beyond
	// an explicit MaxBytes). Atomic so attaching is safe mid-query.
	liveOps atomic.Pointer[ops.Registry]
	// previews memoizes rendered previews by full name (see preview.go).
	// Readers fill it under mu's read lock, so it has its own previewMu; no
	// mutation touches it, and restoring a snapshot drops it.
	previewMu sync.Mutex
	previews  map[string]stampedPreview
}

// SetOpsRegistry attaches the live-operations registry: every query from
// then on registers at start, publishes live progress and memory counters,
// and becomes killable by id. Passing nil detaches. Call before serving
// traffic.
func (c *Catalog) SetOpsRegistry(r *ops.Registry) {
	c.liveOps.Store(r)
}

// SetMetrics attaches an observability bundle; catalog mutations and the
// query path report through it from then on. Passing nil detaches. The
// engine's worker-occupancy hook is pointed at the parallel-workers gauge
// (the hook is process-global; the last attached bundle wins, and each
// acquire/release pair uses one consistent gauge either way).
func (c *Catalog) SetMetrics(m *obs.PlatformMetrics) {
	c.metrics.Store(m)
	if m != nil {
		engine.SetWorkersBusyHook(m.ParallelWorkersBusy.Add)
		engine.SetSegmentsHook(func(scanned, skipped int64) {
			m.SegmentsScanned.Add(scanned)
			m.SegmentsSkipped.Add(skipped)
		})
	} else {
		engine.SetWorkersBusyHook(nil)
		engine.SetSegmentsHook(nil)
	}
}

// countOp records one catalog mutation in the sqlshare_catalog_ops_total
// family, if metrics are attached.
func (c *Catalog) countOp(op string) {
	if m := c.metrics.Load(); m != nil {
		m.CatalogOps.With(op).Inc()
	}
}

// New creates an empty catalog with a real-time clock.
func New() *Catalog {
	c := &Catalog{
		users:      map[string]*User{},
		datasets:   map[string]*Dataset{},
		baseTables: map[string]*storage.Table{},
		macros:     map[string]*Macro{},
		versions:   map[string]uint64{},
		previews:   map[string]stampedPreview{},
		clock:      time.Now,
	}
	h, err := history.New(history.Config{})
	if err != nil {
		panic(err) // unreachable: an empty config opens no file
	}
	c.history.Store(h)
	return c
}

// SetClock replaces the catalog clock; the synthetic workload generators
// use this to replay multi-year histories deterministically. The clock may
// be called concurrently from query execution and must be safe for
// concurrent use.
func (c *Catalog) SetClock(clock func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock = clock
}

// now must be called with at least a read lock held.
func (c *Catalog) now() time.Time { return c.clock() }

// The exported mutations below each come in two forms: the plain name
// (seed API, traces nothing) and a ...Context variant that records the
// mutation's WAL append as a span of ctx's active trace. The plain form
// delegates with context.Background(), so untraced callers pay nothing.

// CreateUser registers a user.
func (c *Catalog) CreateUser(name, email string) (*User, error) {
	return c.CreateUserContext(context.Background(), name, email)
}

// CreateUserContext is CreateUser under a trace context.
func (c *Catalog) CreateUserContext(ctx context.Context, name, email string) (*User, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if name == "" {
		return nil, fmt.Errorf("catalog: user name required")
	}
	if _, ok := c.users[name]; ok {
		return nil, fmt.Errorf("catalog: user %q already exists", name)
	}
	rec := &wal.Record{
		Op: wal.OpCreateUser, Time: c.now(),
		CreateUser: &wal.CreateUser{Name: name, Email: email},
	}
	if err := c.commitLocked(ctx, rec); err != nil {
		return nil, err
	}
	c.countOp("create_user")
	return c.users[name], nil
}

// Users returns all users sorted by name.
func (c *Catalog) Users() []*User {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*User, 0, len(c.users))
	for _, u := range c.users {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CreateDatasetFromTable is the upload path (Fig 2b): store tbl as a hidden
// base table and create the trivial wrapper view over it. The wrapper gives
// novice users an example query to edit (§3.2).
func (c *Catalog) CreateDatasetFromTable(owner, name string, tbl *storage.Table, meta Meta) (*Dataset, error) {
	return c.CreateDatasetFromTableContext(context.Background(), owner, name, tbl, meta)
}

// CreateDatasetFromTableContext is CreateDatasetFromTable under a trace
// context.
func (c *Catalog) CreateDatasetFromTableContext(ctx context.Context, owner, name string, tbl *storage.Table, meta Meta) (*Dataset, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.users[owner]; !ok {
		return nil, fmt.Errorf("catalog: unknown user %q", owner)
	}
	full := owner + "." + name
	if ds, ok := c.datasets[full]; ok && !ds.Deleted {
		return nil, fmt.Errorf("catalog: dataset %q already exists", full)
	}
	if err := c.checkQuotaLocked(owner, int64(tbl.NumRows())*int64(tbl.RowSizeBytes())); err != nil {
		return nil, err
	}
	p := &wal.CreateDataset{
		Owner: owner, Name: name,
		Description: meta.Description, Tags: meta.Tags,
		LiveTable: tbl,
	}
	if c.journal != nil {
		p.Table = tbl.Data() // serialized form travels to disk only
	}
	rec := &wal.Record{Op: wal.OpCreateDataset, Time: c.now(), CreateDataset: p}
	if err := c.commitLocked(ctx, rec); err != nil {
		return nil, err
	}
	c.countOp("create_dataset")
	return c.datasets[full].clone(), nil
}

// SaveView creates a derived dataset from a query (Fig 2e). Any top-level
// ORDER BY is stripped to comply with the SQL standard (§3.5). The
// definition is bound, authorized for its saver and compiled eagerly, so a
// view that is broken or that its owner may not read is rejected at save.
func (c *Catalog) SaveView(owner, name, sql string, meta Meta) (*Dataset, error) {
	return c.SaveViewContext(context.Background(), owner, name, sql, meta)
}

// SaveViewContext is SaveView under a trace context.
func (c *Catalog) SaveViewContext(ctx context.Context, owner, name, sql string, meta Meta) (*Dataset, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.users[owner]; !ok {
		return nil, fmt.Errorf("catalog: unknown user %q", owner)
	}
	full := owner + "." + name
	if ds, ok := c.datasets[full]; ok && !ds.Deleted {
		return nil, fmt.Errorf("catalog: dataset %q already exists", full)
	}
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	if sqlparser.StripOrderBy(q) {
		sql = q.SQL()
	}
	if _, err := c.compileLocked(owner, q); err != nil {
		return nil, fmt.Errorf("catalog: view definition does not compile: %w", err)
	}
	rec := &wal.Record{
		Op: wal.OpSaveView, Time: c.now(),
		SaveView: &wal.SaveView{
			Owner: owner, Name: name, SQL: sql,
			Description: meta.Description, Tags: meta.Tags,
		},
	}
	if err := c.commitLocked(ctx, rec); err != nil {
		return nil, err
	}
	c.countOp("save_view")
	return c.datasets[full].clone(), nil
}

// Append implements the REST convenience call of §3.2: rewrite dataset
// existing as (existing') UNION ALL (new), where existing' is the prior
// definition. Downstream views see the new data with no changes; the batch
// remains inspectable and can be "uninserted" by editing the view.
func (c *Catalog) Append(owner, existing, newUpload string) error {
	return c.AppendContext(context.Background(), owner, existing, newUpload)
}

// AppendContext is Append under a trace context.
func (c *Catalog) AppendContext(ctx context.Context, owner, existing, newUpload string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, err := c.lookupLocked(owner, existing)
	if err != nil {
		return err
	}
	if ds.Owner != owner {
		return fmt.Errorf("catalog: only the owner can append to %q", ds.FullName())
	}
	nds, err := c.lookupLocked(owner, newUpload)
	if err != nil {
		return err
	}
	// Schema compatibility: compile both and compare arity.
	oldPlan, err := c.bindDatasetLocked(owner, ds).plan()
	if err != nil {
		return err
	}
	newPlan, err := c.bindDatasetLocked(owner, nds).plan()
	if err != nil {
		return err
	}
	if len(oldPlan.Columns) != len(newPlan.Columns) {
		return fmt.Errorf("catalog: append schema mismatch: %d vs %d columns",
			len(oldPlan.Columns), len(newPlan.Columns))
	}
	// The rewritten definition must parse before the rewrite is journaled.
	sql := fmt.Sprintf("(%s) UNION ALL (SELECT * FROM [%s])", ds.SQL, nds.FullName())
	if _, err := sqlparser.Parse(sql); err != nil {
		return err
	}
	rec := &wal.Record{
		Op: wal.OpAppend, Time: c.now(),
		Append: &wal.AppendView{Owner: owner, Dataset: ds.FullName(), Source: nds.FullName()},
	}
	if err := c.commitLocked(ctx, rec); err != nil {
		return err
	}
	c.countOp("append")
	return nil
}

// Materialize snapshots a dataset into a new physical dataset whose
// contents no longer track the source view (§3.2: for consumers who need
// data that does not change underneath them).
func (c *Catalog) Materialize(owner, source, snapshotName string) (*Dataset, error) {
	return c.MaterializeContext(context.Background(), owner, source, snapshotName)
}

// MaterializeContext is Materialize under a trace context.
func (c *Catalog) MaterializeContext(ctx context.Context, owner, source, snapshotName string) (*Dataset, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, err := c.lookupLocked(owner, source)
	if err != nil {
		return nil, err
	}
	p, err := c.snapshotLocked(owner, ds, snapshotName)
	if err != nil {
		return nil, err
	}
	full := owner + "." + snapshotName
	if existing, ok := c.datasets[full]; ok && !existing.Deleted {
		return nil, fmt.Errorf("catalog: dataset %q already exists", full)
	}
	rec := &wal.Record{Op: wal.OpMaterialize, Time: c.now(), Materialize: p}
	if err := c.commitLocked(ctx, rec); err != nil {
		return nil, err
	}
	c.countOp("materialize")
	return c.datasets[full].clone(), nil
}

// snapshotLocked runs ds's definition for actor and copies the rows into a
// table called name. The rows travel in the record: snapshot contents depend
// on execution time, so replay restores the bytes, not the query.
func (c *Catalog) snapshotLocked(actor string, ds *Dataset, name string) (*wal.Materialize, error) {
	plan, err := c.bindDatasetLocked(actor, ds).plan()
	if err != nil {
		return nil, err
	}
	res, err := plan.Execute(&engine.ExecContext{Now: c.now()})
	if err != nil {
		return nil, err
	}
	schema := make(storage.Schema, len(res.Cols))
	for i, col := range res.Cols {
		schema[i] = storage.Column{Name: col.Name, Type: col.Type}
	}
	tbl := storage.NewTable(name, schema)
	if err := tbl.Insert(append([]storage.Row(nil), res.Rows...)); err != nil {
		return nil, err
	}
	p := &wal.Materialize{Owner: actor, Source: ds.FullName(), Name: name, LiveTable: tbl}
	if c.journal != nil {
		p.Table = tbl.Data() // serialized form travels to disk only
	}
	return p, nil
}

// MaterializeInPlace swaps a derived view's definition for a physical
// snapshot of its current contents, keeping the dataset's name so every
// downstream view and query is transparently accelerated. This is the
// unilateral "safe-scenario" materialization §3.2 says the system was
// exploring: it trades freshness (the dataset stops tracking its sources)
// for evaluation cost, so callers — like the advisor — must decide when
// that is safe. The logical definition is preserved in OriginalSQL.
func (c *Catalog) MaterializeInPlace(owner, name string) error {
	return c.MaterializeInPlaceContext(context.Background(), owner, name)
}

// MaterializeInPlaceContext is MaterializeInPlace under a trace context.
func (c *Catalog) MaterializeInPlaceContext(ctx context.Context, owner, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, err := c.lookupLocked(owner, name)
	if err != nil {
		return err
	}
	if ds.Owner != owner {
		return fmt.Errorf("catalog: only the owner can materialize %q", ds.FullName())
	}
	if ds.IsWrapper || ds.Materialized {
		return fmt.Errorf("catalog: %q is already physically backed", ds.FullName())
	}
	p, err := c.snapshotLocked(owner, ds, ds.FullName())
	if err != nil {
		return err
	}
	p.InPlace = true
	rec := &wal.Record{Op: wal.OpMaterializeInPlace, Time: c.now(), Materialize: p}
	if err := c.commitLocked(ctx, rec); err != nil {
		return err
	}
	c.countOp("materialize_in_place")
	return nil
}

// Delete removes a dataset from view. The record is retained (flagged) so
// workload analyses over the full history keep working; §4 notes users
// delete datasets routinely.
func (c *Catalog) Delete(owner, name string) error {
	return c.DeleteContext(context.Background(), owner, name)
}

// DeleteContext is Delete under a trace context.
func (c *Catalog) DeleteContext(ctx context.Context, owner, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, err := c.lookupLocked(owner, name)
	if err != nil {
		return err
	}
	if ds.Owner != owner {
		return fmt.Errorf("catalog: only the owner can delete %q", ds.FullName())
	}
	rec := &wal.Record{
		Op: wal.OpDeleteDataset, Time: c.now(),
		DatasetOp: &wal.DatasetOp{Owner: owner, Dataset: ds.FullName()},
	}
	if err := c.commitLocked(ctx, rec); err != nil {
		return err
	}
	c.countOp("delete_dataset")
	return nil
}

// SetVisibility makes a dataset public or private.
func (c *Catalog) SetVisibility(owner, name string, v Visibility) error {
	return c.SetVisibilityContext(context.Background(), owner, name, v)
}

// SetVisibilityContext is SetVisibility under a trace context.
func (c *Catalog) SetVisibilityContext(ctx context.Context, owner, name string, v Visibility) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, err := c.lookupLocked(owner, name)
	if err != nil {
		return err
	}
	if ds.Owner != owner {
		return fmt.Errorf("catalog: only the owner can change visibility of %q", ds.FullName())
	}
	rec := &wal.Record{
		Op: wal.OpSetVisibility, Time: c.now(),
		DatasetOp: &wal.DatasetOp{Owner: owner, Dataset: ds.FullName(), Public: v == Public},
	}
	if err := c.commitLocked(ctx, rec); err != nil {
		return err
	}
	c.countOp("set_visibility")
	return nil
}

// ShareWith grants a specific user access to a dataset (§5.2).
func (c *Catalog) ShareWith(owner, name, user string) error {
	return c.ShareWithContext(context.Background(), owner, name, user)
}

// ShareWithContext is ShareWith under a trace context.
func (c *Catalog) ShareWithContext(ctx context.Context, owner, name, user string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, err := c.lookupLocked(owner, name)
	if err != nil {
		return err
	}
	if ds.Owner != owner {
		return fmt.Errorf("catalog: only the owner can share %q", ds.FullName())
	}
	if _, ok := c.users[user]; !ok {
		return fmt.Errorf("catalog: unknown user %q", user)
	}
	rec := &wal.Record{
		Op: wal.OpShare, Time: c.now(),
		DatasetOp: &wal.DatasetOp{Owner: owner, Dataset: ds.FullName(), User: user},
	}
	if err := c.commitLocked(ctx, rec); err != nil {
		return err
	}
	c.countOp("share")
	return nil
}

// UpdateMeta replaces a dataset's description and tags.
func (c *Catalog) UpdateMeta(owner, name string, meta Meta) error {
	return c.UpdateMetaContext(context.Background(), owner, name, meta)
}

// UpdateMetaContext is UpdateMeta under a trace context.
func (c *Catalog) UpdateMetaContext(ctx context.Context, owner, name string, meta Meta) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, err := c.lookupLocked(owner, name)
	if err != nil {
		return err
	}
	if ds.Owner != owner {
		return fmt.Errorf("catalog: only the owner can edit %q", ds.FullName())
	}
	rec := &wal.Record{
		Op: wal.OpUpdateMeta, Time: c.now(),
		DatasetOp: &wal.DatasetOp{
			Owner: owner, Dataset: ds.FullName(),
			Description: meta.Description, Tags: meta.Tags,
		},
	}
	if err := c.commitLocked(ctx, rec); err != nil {
		return err
	}
	c.countOp("update_meta")
	return nil
}

// Dataset returns a dataset visible to user, applying permission checks.
func (c *Catalog) Dataset(user, name string) (*Dataset, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ds, err := c.lookupLocked(user, name)
	if err != nil {
		return nil, err
	}
	if err := c.bindDatasetLocked(user, ds).authorize(); err != nil {
		return nil, err
	}
	return ds.clone(), nil
}

// Datasets returns all live datasets (for analysis and listing), sorted by
// full name. Deleted datasets are included when includeDeleted is set.
func (c *Catalog) Datasets(includeDeleted bool) []*Dataset {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Dataset, 0, len(c.datasets))
	for _, ds := range c.datasets {
		if ds.Deleted && !includeDeleted {
			continue
		}
		out = append(out, ds.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// NumBaseTables reports how many physical tables the catalog stores.
func (c *Catalog) NumBaseTables() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.baseTables)
}

// TotalColumns counts the columns across all base tables (Table 2a).
func (c *Catalog) TotalColumns() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, t := range c.baseTables {
		n += len(t.Schema())
	}
	return n
}

// lookupLocked resolves a dataset name in a user context: "owner.name" is
// exact; a bare name resolves within the user's own datasets first, then
// uniquely across all datasets.
func (c *Catalog) lookupLocked(user, name string) (*Dataset, error) {
	if ds, ok := c.datasets[name]; ok && !ds.Deleted {
		return ds, nil
	}
	if user != "" {
		if ds, ok := c.datasets[user+"."+name]; ok && !ds.Deleted {
			return ds, nil
		}
	}
	// Unique short-name match across the catalog.
	var found *Dataset
	for _, ds := range c.datasets {
		if ds.Deleted || !strings.EqualFold(ds.Name, name) {
			continue
		}
		if found != nil {
			return nil, fmt.Errorf("catalog: dataset name %q is ambiguous; qualify as owner.name", name)
		}
		found = ds
	}
	if found == nil {
		return nil, fmt.Errorf("catalog: dataset %q not found", name)
	}
	return found, nil
}

// ReferencedDatasets returns the dataset full names directly referenced by
// ds's definition (excluding hidden base tables).
func (c *Catalog) ReferencedDatasets(ds *Dataset) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bindDatasetLocked(ds.Owner, ds).in.datasets()
}

// ViewDepth computes the derivation depth of a dataset: a view over only
// uploaded datasets has depth 0; each layer of derived views adds one
// (Figure 6).
func (c *Catalog) ViewDepth(ds *Dataset) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bindDatasetLocked(ds.Owner, ds).in.depth(map[*scope]int{})
}
