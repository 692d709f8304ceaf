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
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlshare/internal/engine"
	"sqlshare/internal/history"
	"sqlshare/internal/obs"
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

// clone is the copy the catalog hands out, and the copy an apply function
// changes: a published *Dataset is never written.
func (d *Dataset) clone() *Dataset {
	cp := *d
	cp.SharedWith = maps.Clone(d.SharedWith)
	return &cp
}

// state is the catalog's read state: one immutable value, published whole.
// A commit applies its record to a copy that shares the published maps
// until an apply function clones the ones it writes (writable), and clones
// a *Dataset before it changes it; so a reader that loaded a state reads it
// unchanged for as long as it holds it.
type state struct {
	users    map[string]*User
	datasets map[string]*Dataset // key: FullName
	// baseTables holds the uploaded and materialized tables. An installed
	// table is never mutated: an upload or a materialization installs a
	// table built fresh, an append rewrites only a view, and a delete only
	// flags its dataset. So a checkpoint encodes the tables of the state it
	// loaded while writers go on.
	baseTables map[string]*storage.Table
	macros     map[string]*Macro // key: owner.name
	// versions holds the per-dataset monotonic content counters that fence
	// the result cache and the preview memo (see version.go). Entries are
	// never removed, even on dataset delete.
	versions map[string]uint64
	// shared marks a commit's copy, whose maps are the published state's.
	// Recovery builds a state nobody has loaded and writes its maps in place.
	shared bool
}

func newState() *state {
	return &state{
		users:      map[string]*User{},
		datasets:   map[string]*Dataset{},
		baseTables: map[string]*storage.Table{},
		macros:     map[string]*Macro{},
		versions:   map[string]uint64{},
	}
}

// writable returns m, a map of s, for an apply function to write: a clone
// in a commit's copy, m itself while recovery builds s.
func writable[M ~map[K]V, K comparable, V any](s *state, m M) M {
	if s.shared {
		return maps.Clone(m)
	}
	return m
}

// Catalog is the SQLShare metadata store.
type Catalog struct {
	// mu orders writers: a mutation validates against the published state,
	// journals its record and publishes the next state while holding it.
	// Readers take no lock: each loads state once and reads that value.
	mu    sync.Mutex
	state atomic.Pointer[state]
	// quotaBytes is the per-user allowance (quota.go); guarded by mu.
	quotaBytes int64
	// clock and journal are set before traffic (SetClock, SetJournal).
	clock func() time.Time
	// metrics is the optional observability bundle; nil means no
	// reporting. Held in an atomic pointer so SetMetrics is safe while
	// queries run.
	metrics atomic.Pointer[obs.PlatformMetrics]
	// history is the query log and its folds (see history.go); never nil.
	// It has its own lock, so finished queries record their entries
	// concurrently.
	history atomic.Pointer[history.History]
	// journal is the optional durable mutation log (see journal.go); nil
	// means in-memory only.
	journal Journal
	// resultCache is the optional version-fenced result cache; nil
	// means every query executes. Atomic so attaching is safe mid-query.
	resultCache atomic.Pointer[qcache.Cache]
	// previews memoizes rendered previews by full name (see preview.go).
	// Readers fill it concurrently, so it has its own previewMu; the only
	// mutation that touches it is a delete, which drops the dataset's entry.
	previewMu sync.Mutex
	previews  map[string]stampedPreview
}

// SetMetrics attaches an observability bundle for what the catalog counts
// itself: the segments its executions read and skip, and its mutations. A
// finished query's instruments are observed by the history it is recorded
// in (history.Config.Metrics), not here. Passing nil detaches.
func (c *Catalog) SetMetrics(m *obs.PlatformMetrics) { c.metrics.Store(m) }

// countSegments adds one execution's segment counts to this catalog's
// metrics, if attached. Each of the catalog's executions — a query, a
// preview, a materialization — reports through it, failed runs included.
func (c *Catalog) countSegments(ctx *engine.ExecContext) {
	if m := c.metrics.Load(); m != nil {
		scanned, skipped := ctx.Segments()
		m.SegmentsScanned.Add(scanned)
		m.SegmentsSkipped.Add(skipped)
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
	c := &Catalog{previews: map[string]stampedPreview{}, clock: time.Now}
	c.state.Store(newState())
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
// concurrent use. Call before serving traffic.
func (c *Catalog) SetClock(clock func() time.Time) { c.clock = clock }

// checkName refuses a user or dataset name that no statement could write
// as [owner.name], which the wrapper view over an upload's or a snapshot's
// table is. It runs before the record is journaled: replay must apply
// every record the log holds.
func checkName(name string) error {
	if name == "" || strings.Contains(name, "]") {
		return fmt.Errorf("catalog: invalid name %q: empty, or holding ]", name)
	}
	return nil
}

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
	if err := checkName(name); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.state.Load().users[name]; ok {
		return nil, fmt.Errorf("catalog: user %q already exists", name)
	}
	rec := &wal.Record{
		Op: wal.OpCreateUser, Time: c.clock(),
		CreateUser: &wal.CreateUser{Name: name, Email: email},
	}
	s, err := c.commit(ctx, rec)
	if err != nil {
		return nil, err
	}
	c.countOp("create_user")
	return s.users[name], nil
}

// Users returns all users sorted by name.
func (c *Catalog) Users() []*User {
	users := c.state.Load().users
	out := make([]*User, 0, len(users))
	for _, u := range users {
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
// context. On a durable catalog the table is encoded for the log before
// the writer mutex is taken, so other writers do not wait behind the encode.
func (c *Catalog) CreateDatasetFromTableContext(ctx context.Context, owner, name string, tbl *storage.Table, meta Meta) (*Dataset, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	p := &wal.CreateDataset{
		Owner: owner, Name: name,
		Description: meta.Description, Tags: meta.Tags,
		LiveTable: tbl,
	}
	if c.journal != nil {
		p.TableJSON = tbl.AppendJSON(nil)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.state.Load()
	if _, ok := s.users[owner]; !ok {
		return nil, fmt.Errorf("catalog: unknown user %q", owner)
	}
	full := owner + "." + name
	if ds, ok := s.datasets[full]; ok && !ds.Deleted {
		return nil, fmt.Errorf("catalog: dataset %q already exists", full)
	}
	if err := c.checkQuota(s, owner, int64(tbl.NumRows())*int64(tbl.RowSizeBytes())); err != nil {
		return nil, err
	}
	s, err := c.commit(ctx, &wal.Record{Op: wal.OpCreateDataset, Time: c.clock(), CreateDataset: p})
	if err != nil {
		return nil, err
	}
	c.countOp("create_dataset")
	return s.datasets[full].clone(), nil
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
	if err := checkName(name); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.state.Load()
	if _, ok := s.users[owner]; !ok {
		return nil, fmt.Errorf("catalog: unknown user %q", owner)
	}
	full := owner + "." + name
	if ds, ok := s.datasets[full]; ok && !ds.Deleted {
		return nil, fmt.Errorf("catalog: dataset %q already exists", full)
	}
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	if sqlparser.StripOrderBy(q) {
		sql = q.SQL()
	}
	if _, err := s.bind(owner, q).plan(); err != nil {
		return nil, fmt.Errorf("catalog: view definition does not compile: %w", err)
	}
	rec := &wal.Record{
		Op: wal.OpSaveView, Time: c.clock(),
		SaveView: &wal.SaveView{
			Owner: owner, Name: name, SQL: sql,
			Description: meta.Description, Tags: meta.Tags,
		},
	}
	if s, err = c.commit(ctx, rec); err != nil {
		return nil, err
	}
	c.countOp("save_view")
	return s.datasets[full].clone(), nil
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
	s := c.state.Load()
	ds, err := s.lookup(owner, existing)
	if err != nil {
		return err
	}
	if ds.Owner != owner {
		return fmt.Errorf("catalog: only the owner can append to %q", ds.FullName())
	}
	nds, err := s.lookup(owner, newUpload)
	if err != nil {
		return err
	}
	// Schema compatibility: compile both and compare arity.
	oldPlan, err := s.bindDataset(owner, ds).plan()
	if err != nil {
		return err
	}
	newPlan, err := s.bindDataset(owner, nds).plan()
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
		Op: wal.OpAppend, Time: c.clock(),
		Append: &wal.AppendView{Owner: owner, Dataset: ds.FullName(), Source: nds.FullName()},
	}
	if _, err := c.commit(ctx, rec); err != nil {
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
	s, err := c.materialize(ctx, materialization{owner: owner, source: source, snapshot: snapshotName})
	if err != nil {
		return nil, err
	}
	c.countOp("materialize")
	return s.datasets[owner+"."+snapshotName].clone(), nil
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
	if _, err := c.materialize(ctx, materialization{owner: owner, source: name, inPlace: true}); err != nil {
		return err
	}
	c.countOp("materialize_in_place")
	return nil
}

// materialization is a snapshot of the dataset owner reads as source: in
// place, or into a new dataset called snapshot.
type materialization struct {
	owner, source, snapshot string
	inPlace                 bool
}

// bind validates m against s and binds the view query it runs.
func (m materialization) bind(s *state) (*Dataset, *binding, error) {
	ds, err := s.lookup(m.owner, m.source)
	if err != nil {
		return nil, nil, err
	}
	if m.inPlace {
		if ds.Owner != m.owner {
			return nil, nil, fmt.Errorf("catalog: only the owner can materialize %q", ds.FullName())
		}
		if ds.IsWrapper || ds.Materialized {
			return nil, nil, fmt.Errorf("catalog: %q is already physically backed", ds.FullName())
		}
	} else if err := checkName(m.snapshot); err != nil {
		return nil, nil, err
	}
	b := s.bindDataset(m.owner, ds)
	if err := b.authorize(); err != nil {
		return nil, nil, err
	}
	if existing, ok := s.datasets[m.owner+"."+m.snapshot]; ok && !existing.Deleted && !m.inPlace {
		return nil, nil, fmt.Errorf("catalog: dataset %q already exists", existing.FullName())
	}
	return ds, b, nil
}

// materialize runs m's view query on a loaded state with no lock held and
// installs the rows it returned; when a writer moved a version the query
// read in between, it runs again on the new state.
func (c *Catalog) materialize(ctx context.Context, m materialization) (*state, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rec, vv, err := c.runMaterialization(ctx, m, c.state.Load())
		if err != nil {
			return nil, err
		}
		if s, err := c.installMaterialization(ctx, m, rec, vv); s != nil || err != nil {
			return s, err
		}
		c.countOp("materialize_retry")
	}
}

// runMaterialization is m's query half: it executes the view query on s
// and copies the rows into the record's table, returning the versions the
// query read. The rows travel in the record: snapshot contents depend on
// execution time, so replay restores the bytes, not the query.
func (c *Catalog) runMaterialization(ctx context.Context, m materialization, s *state) (*wal.Record, qcache.VersionVector, error) {
	ds, b, err := m.bind(s)
	if err != nil {
		return nil, nil, err
	}
	plan, err := b.compile()
	if err != nil {
		return nil, nil, err
	}
	ectx := &engine.ExecContext{Ctx: ctx, Now: c.clock()}
	res, err := plan.Execute(ectx)
	c.countSegments(ectx)
	if err != nil {
		return nil, nil, err
	}
	schema := make(storage.Schema, len(res.Cols))
	for i, col := range res.Cols {
		schema[i] = storage.Column{Name: col.Name, Type: col.Type}
	}
	p := &wal.Materialize{Owner: m.owner, Source: ds.FullName(), Name: m.snapshot, InPlace: m.inPlace}
	rec := &wal.Record{Op: wal.OpMaterialize, Materialize: p}
	if p.InPlace {
		rec.Op, p.Name = wal.OpMaterializeInPlace, ds.FullName()
	}
	p.LiveTable = storage.NewTable(p.Name, schema)
	if err := p.LiveTable.Insert(append([]storage.Row(nil), res.Rows...)); err != nil {
		return nil, nil, err
	}
	if c.journal != nil {
		p.TableJSON = p.LiveTable.AppendJSON(nil) // the encoded form travels to disk only
	}
	return rec, b.versions(), nil
}

// installMaterialization is m's install half: under the writer mutex it
// validates m again on the published state and commits rec if the binding
// there reads the versions vv the query half read. It returns a nil state
// and no error when a version moved: the caller runs the query again.
func (c *Catalog) installMaterialization(ctx context.Context, m materialization, rec *wal.Record, vv qcache.VersionVector) (*state, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, b, err := m.bind(c.state.Load())
	if err != nil || !slices.Equal(b.versions(), vv) {
		return nil, err
	}
	rec.Time = c.clock()
	return c.commit(ctx, rec)
}

// Delete removes a dataset from view. The record is retained (flagged) so
// workload analyses over the full history keep working; §4 notes users
// delete datasets routinely.
func (c *Catalog) Delete(owner, name string) error {
	return c.DeleteContext(context.Background(), owner, name)
}

// DeleteContext is Delete under a trace context.
func (c *Catalog) DeleteContext(ctx context.Context, owner, name string) error {
	return c.datasetOp(ctx, owner, name, "delete", wal.DatasetOp{}, wal.OpDeleteDataset)
}

// SetVisibility makes a dataset public or private.
func (c *Catalog) SetVisibility(owner, name string, v Visibility) error {
	return c.SetVisibilityContext(context.Background(), owner, name, v)
}

// SetVisibilityContext is SetVisibility under a trace context.
func (c *Catalog) SetVisibilityContext(ctx context.Context, owner, name string, v Visibility) error {
	return c.datasetOp(ctx, owner, name, "change visibility of", wal.DatasetOp{Public: v == Public}, wal.OpSetVisibility)
}

// ShareWith grants a specific user access to a dataset (§5.2).
func (c *Catalog) ShareWith(owner, name, user string) error {
	return c.ShareWithContext(context.Background(), owner, name, user)
}

// ShareWithContext is ShareWith under a trace context.
func (c *Catalog) ShareWithContext(ctx context.Context, owner, name, user string) error {
	if _, ok := c.state.Load().users[user]; !ok { // users are never removed
		return fmt.Errorf("catalog: unknown user %q", user)
	}
	return c.datasetOp(ctx, owner, name, "share", wal.DatasetOp{User: user}, wal.OpShare)
}

// UpdateMeta replaces a dataset's description and tags.
func (c *Catalog) UpdateMeta(owner, name string, meta Meta) error {
	return c.UpdateMetaContext(context.Background(), owner, name, meta)
}

// UpdateMetaContext is UpdateMeta under a trace context.
func (c *Catalog) UpdateMetaContext(ctx context.Context, owner, name string, meta Meta) error {
	return c.datasetOp(ctx, owner, name, "edit",
		wal.DatasetOp{Description: meta.Description, Tags: meta.Tags}, wal.OpUpdateMeta)
}

// datasetOp commits the DatasetOp record op, carrying p, on the dataset
// owner reads as name; only its owner may change it (verb names the change
// in the refusal). Its metric is named after op.
func (c *Catalog) datasetOp(ctx context.Context, owner, name, verb string, p wal.DatasetOp, op string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, err := c.state.Load().lookup(owner, name)
	if err != nil {
		return err
	}
	if ds.Owner != owner {
		return fmt.Errorf("catalog: only the owner can %s %q", verb, ds.FullName())
	}
	p.Owner, p.Dataset = owner, ds.FullName()
	if _, err := c.commit(ctx, &wal.Record{Op: op, Time: c.clock(), DatasetOp: &p}); err != nil {
		return err
	}
	if op == wal.OpDeleteDataset {
		c.forgetPreview(p.Dataset)
	}
	c.countOp(op)
	return nil
}

// Dataset returns a dataset visible to user, applying permission checks.
func (c *Catalog) Dataset(user, name string) (*Dataset, error) {
	s := c.state.Load()
	ds, err := s.lookup(user, name)
	if err != nil {
		return nil, err
	}
	if err := s.bindDataset(user, ds).authorize(); err != nil {
		return nil, err
	}
	return ds.clone(), nil
}

// Datasets returns all live datasets (for analysis and listing), sorted by
// full name. Deleted datasets are included when includeDeleted is set.
func (c *Catalog) Datasets(includeDeleted bool) []*Dataset {
	datasets := c.state.Load().datasets
	out := make([]*Dataset, 0, len(datasets))
	for _, ds := range datasets {
		if ds.Deleted && !includeDeleted {
			continue
		}
		out = append(out, ds.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

// NumBaseTables reports how many physical tables the catalog stores.
func (c *Catalog) NumBaseTables() int { return len(c.state.Load().baseTables) }

// TotalColumns counts the columns across all base tables (Table 2a).
func (c *Catalog) TotalColumns() int {
	n := 0
	for _, t := range c.state.Load().baseTables {
		n += len(t.Schema())
	}
	return n
}

// lookup resolves a dataset name in a user context: "owner.name" is exact;
// a bare name resolves within the user's own datasets first, then uniquely
// across all datasets.
func (s *state) lookup(user, name string) (*Dataset, error) {
	if ds, ok := s.datasets[name]; ok && !ds.Deleted {
		return ds, nil
	}
	if user != "" {
		if ds, ok := s.datasets[user+"."+name]; ok && !ds.Deleted {
			return ds, nil
		}
	}
	// Unique short-name match across the catalog.
	var found *Dataset
	for _, ds := range s.datasets {
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
	return c.state.Load().bindDataset(ds.Owner, ds).in.datasets()
}

// ViewDepth computes the derivation depth of a dataset: a view over only
// uploaded datasets has depth 0; each layer of derived views adds one
// (Figure 6).
func (c *Catalog) ViewDepth(ds *Dataset) int {
	return c.state.Load().bindDataset(ds.Owner, ds).in.depth(map[*scope]int{})
}
