// Package sqlshare is the public API of the SQLShare reproduction: a
// SQL-as-a-service platform for ad hoc, collaborative data analysis (Jain,
// Moritz, Halperin, Howe, Lazowska: "SQLShare: Results from a Multi-Year
// SQL-as-a-Service Experiment", SIGMOD 2016).
//
// The platform reduces database use to a minimal workflow — upload data,
// write queries, share the results — and automates everything else:
//
//   - Relaxed schemas (§3.1): CSV-ish files are ingested as-is; delimiters,
//     headers and column types are inferred; ragged rows are padded; type
//     conflicts below the inference prefix revert the column to text.
//   - Everything is a dataset (§3.2): uploads become wrapper views; saving
//     a query creates a derived dataset; datasets are read-only and carry
//     metadata and a memoized preview; appends rewrite the view as a UNION.
//   - Controlled sharing (§3.2): private/public/per-user permissions with
//     SQL Server-style ownership-chain semantics.
//   - Full SQL (§3.5): joins, subqueries, set operations, window functions,
//     CASE/CAST, and a T-SQL-flavoured function library, executed by the
//     bundled relational engine.
//   - Instrumentation (§4): every query is logged with its extracted JSON
//     plan and metadata, ready for the workload analyses in
//     internal/workload.
//
// A Platform embeds the whole stack in-process; Handler exposes the same
// platform over the REST protocol of §3.3.
package sqlshare

import (
	"io"
	"net/http"
	"strings"

	"sqlshare/internal/advisor"
	"sqlshare/internal/catalog"
	"sqlshare/internal/engine"
	"sqlshare/internal/ingest"
	"sqlshare/internal/plan"
	"sqlshare/internal/recommend"
	"sqlshare/internal/server"
	"sqlshare/internal/workload"
)

// Re-exported types: the public API surfaces the catalog, engine and plan
// vocabulary without requiring internal imports.
type (
	// Result is a query result: typed columns and rows.
	Result = engine.Result
	// Dataset is a SQLShare dataset: (sql, metadata, preview).
	Dataset = catalog.Dataset
	// Meta is dataset metadata (description + tags).
	Meta = catalog.Meta
	// Preview is a dataset's first rows, rendered as text.
	Preview = catalog.Preview
	// LogEntry is one query-log record with its extracted plan.
	LogEntry = catalog.LogEntry
	// QueryPlan is the extracted JSON plan of a query (paper Listing 1).
	QueryPlan = plan.QueryPlan
	// IngestReport describes what relaxed-schema ingest did to a file.
	IngestReport = ingest.Report
	// IngestOptions tunes ingest heuristics.
	IngestOptions = ingest.Options
	// User is a registered platform user.
	User = catalog.User
	// Corpus is an analyzable workload (catalog + query log).
	Corpus = workload.Corpus
)

// IsAccessError reports whether an error is a permission failure
// (including broken ownership chains).
func IsAccessError(err error) bool { return catalog.IsAccessError(err) }

// Durability re-exports: a platform opened with OpenDurable journals every
// catalog mutation to a write-ahead log and recovers from snapshot + log
// replay at startup (see internal/wal and internal/catalog).
type (
	// Durability owns the WAL writer and checkpointer of a durable platform.
	Durability = catalog.Durability
	// DurableOptions configures sync mode, checkpoint cadence and retention.
	DurableOptions = catalog.DurableOptions
	// RecoveryStats describes what startup recovery restored and replayed.
	RecoveryStats = catalog.RecoveryStats
	// CheckpointStats describes one completed checkpoint.
	CheckpointStats = catalog.CheckpointStats
)

// Platform is an embedded SQLShare instance.
type Platform struct {
	cat *catalog.Catalog
}

// New creates an empty platform.
func New() *Platform {
	return &Platform{cat: catalog.New()}
}

// OpenDurable opens (creating if needed) a data directory, recovers the
// platform's state from the latest snapshot plus the WAL tail, and returns
// the platform with durability attached: every mutation from then on is
// fsynced to the log before it is visible. Close the Durability on
// shutdown.
func OpenDurable(dir string, opts *DurableOptions) (*Platform, *Durability, error) {
	cat, d, err := catalog.OpenDurable(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	return &Platform{cat: cat}, d, nil
}

// OpenReadOnly recovers a platform from a data directory without writing
// anything — safe to point at a live server's directory for offline
// inspection and analysis.
func OpenReadOnly(dir string) (*Platform, RecoveryStats, error) {
	cat, stats, err := catalog.OpenReadOnly(dir)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	return &Platform{cat: cat}, stats, nil
}

// Catalog exposes the underlying catalog for advanced use (workload
// analysis, custom clocks).
func (p *Platform) Catalog() *catalog.Catalog { return p.cat }

// CreateUser registers a user.
func (p *Platform) CreateUser(name, email string) (*User, error) {
	return p.cat.CreateUser(name, email)
}

// Upload ingests delimited text as a new dataset owned by user, applying
// the full relaxed-schema pipeline, and returns the dataset together with
// the ingest report.
func (p *Platform) Upload(user, name string, r io.Reader, opts IngestOptions) (*Dataset, *IngestReport, error) {
	rep, err := ingest.Load(name, r, opts)
	if err != nil {
		return nil, nil, err
	}
	ds, err := p.cat.CreateDatasetFromTable(user, name, rep.Table, Meta{})
	if err != nil {
		return nil, nil, err
	}
	return ds, rep, nil
}

// UploadString is Upload over a string, convenient for examples and tests.
func (p *Platform) UploadString(user, name, data string) (*Dataset, *IngestReport, error) {
	return p.Upload(user, name, strings.NewReader(data), IngestOptions{})
}

// SaveView saves a query as a derived dataset (stripping any top-level
// ORDER BY, per §3.5).
func (p *Platform) SaveView(user, name, sql string, meta Meta) (*Dataset, error) {
	return p.cat.SaveView(user, name, sql, meta)
}

// Query executes sql as user, enforcing permissions and logging the query
// with its extracted plan.
func (p *Platform) Query(user, sql string) (*Result, error) {
	res, _, err := p.cat.Query(user, sql)
	return res, err
}

// QueryLogged executes sql and also returns the log entry (plan, timings).
// Each node of the entry's Plan tree carries, beside its estimates, the
// run's actual rows, executions, wall time, output bytes, workers and
// segments (plan.Node.Actual) — the reproduction's equivalent of SHOWPLAN's
// RunTimeInformation (§4).
func (p *Platform) QueryLogged(user, sql string) (*Result, *LogEntry, error) {
	return p.cat.Query(user, sql)
}

// Explain returns the extracted plan without executing the query.
func (p *Platform) Explain(user, sql string) (*QueryPlan, error) {
	return p.cat.Explain(user, sql)
}

// SetPublic publishes (or unpublishes) a dataset.
func (p *Platform) SetPublic(owner, name string, public bool) error {
	v := catalog.Private
	if public {
		v = catalog.Public
	}
	return p.cat.SetVisibility(owner, name, v)
}

// Share grants another user access to a dataset.
func (p *Platform) Share(owner, name, withUser string) error {
	return p.cat.ShareWith(owner, name, withUser)
}

// Append rewrites dataset existing as (existing) UNION ALL (newUpload),
// simulating a batch insert with full provenance (§3.2).
func (p *Platform) Append(owner, existing, newUpload string) error {
	return p.cat.Append(owner, existing, newUpload)
}

// Materialize snapshots a dataset so its contents stop tracking the view.
func (p *Platform) Materialize(owner, source, snapshotName string) (*Dataset, error) {
	return p.cat.Materialize(owner, source, snapshotName)
}

// Delete removes a dataset from view.
func (p *Platform) Delete(owner, name string) error {
	return p.cat.Delete(owner, name)
}

// Dataset fetches a dataset visible to user (permission-checked).
func (p *Platform) Dataset(user, name string) (*Dataset, error) {
	return p.cat.Dataset(user, name)
}

// Preview returns the first rows of a dataset visible to user, as its owner's
// definition returns them; served without re-running the query while
// nothing it reads has changed (§3.3).
func (p *Platform) Preview(user, name string) (Preview, error) {
	return p.cat.Preview(user, name)
}

// Datasets lists all live datasets.
func (p *Platform) Datasets() []*Dataset { return p.cat.Datasets(false) }

// ViewDepth computes a dataset's derivation depth (provenance chain).
func (p *Platform) ViewDepth(ds *Dataset) int { return p.cat.ViewDepth(ds) }

// Provenance lists the dataset names a dataset's definition references.
func (p *Platform) Provenance(ds *Dataset) []string {
	return p.cat.ReferencedDatasets(ds)
}

// Log returns the query log in execution order: the most recent 1,024
// entries. The in-memory log is a bounded window; a server's full corpus is
// the JSONL file it writes with -history-log.
func (p *Platform) Log() []*LogEntry { return p.cat.Log() }

// Corpus snapshots the platform's workload for analysis: its datasets and
// the window of the query log that Log returns.
func (p *Platform) Corpus(name string) *Corpus {
	return workload.NewCorpus(name, p.cat)
}

// Handler returns the REST interface (§3.3) over this platform.
func (p *Platform) Handler() http.Handler { return server.New(p.cat) }

// ---------------------------------------------------------------------
// Next-release features the paper announces (§5.2–§5.3, §8).

// Macro is a saved parameterized query template; parameters may appear in
// the FROM clause (§5.2).
type Macro = catalog.Macro

// MintDOI assigns a stable citation identifier to a public dataset (§5.2).
func (p *Platform) MintDOI(owner, name string) (string, error) {
	return p.cat.MintDOI(owner, name)
}

// ResolveDOI finds the dataset behind a minted DOI.
func (p *Platform) ResolveDOI(doi string) (*Dataset, error) {
	return p.cat.ResolveDOI(doi)
}

// SaveMacro stores a parameterized query macro; parameters are the $name
// placeholders in the template.
func (p *Platform) SaveMacro(owner, name, template string) (*Macro, error) {
	return p.cat.SaveMacro(owner, name, template)
}

// QueryMacro expands and runs a macro.
func (p *Platform) QueryMacro(user, name string, args map[string]string) (*LogEntry, error) {
	return p.cat.QueryMacro(user, name, args)
}

// ExpandPatterns rewrites [prefix*] / [* EXCEPT ...] / [$v] column
// patterns against the referenced datasets' schemas (§5.3).
func (p *Platform) ExpandPatterns(user, sql string) (string, error) {
	return p.cat.ExpandPatterns(user, sql)
}

// QueryWithPatterns expands column patterns and executes the result.
func (p *Platform) QueryWithPatterns(user, sql string) (*Result, error) {
	res, _, err := p.cat.QueryWithPatterns(user, sql)
	return res, err
}

// Recommendation is a suggested query for a dataset.
type Recommendation = recommend.Recommendation

// Recommend suggests up to k queries for user to run over dataset, mined
// from the platform's own query log (§8 future work, after SnipSuggest).
func (p *Platform) Recommend(user, dataset string, k int) ([]Recommendation, error) {
	cols, err := recommend.CatalogColumns(p.cat, user, dataset)
	if err != nil {
		return nil, err
	}
	ds, err := p.cat.Dataset(user, dataset)
	if err != nil {
		return nil, err
	}
	eng := recommend.New(workload.NewCorpus("live", p.cat))
	return eng.ForDataset(user, ds.FullName(), cols, k), nil
}

// MaterializationCandidate is one view the advisor proposes to snapshot.
type MaterializationCandidate = advisor.Candidate

// AdviseMaterialization ranks the platform's derived views by the
// estimated cost a materialization cache would save (§3.2, §6.2).
func (p *Platform) AdviseMaterialization(topK int) []MaterializationCandidate {
	return advisor.Analyze(workload.NewCorpus("live", p.cat), topK)
}

// ApplyMaterializationAdvice materializes the safe top-K candidates in
// place and returns the converted dataset names.
func (p *Platform) ApplyMaterializationAdvice(topK int) ([]string, error) {
	cands := p.AdviseMaterialization(topK)
	return advisor.Apply(p.cat, cands), nil
}

// Search finds datasets visible to user matching the query terms over
// names, descriptions and tags (§3.2's tag-based organization).
func (p *Platform) Search(user, query string) []*Dataset {
	return p.cat.SearchDatasets(user, query)
}

// UserUsage reports the user's physical storage consumption in bytes.
func (p *Platform) UserUsage(user string) int64 { return p.cat.UserUsage(user) }

// SetQuotaBytes sets the per-user storage allowance (Fig 3's Quotas
// component); 0 restores the default, negative disables enforcement.
func (p *Platform) SetQuotaBytes(n int64) { p.cat.SetQuotaBytes(n) }

// IsQuotaError reports whether an error is a storage-quota violation.
func IsQuotaError(err error) bool { return catalog.IsQuotaError(err) }
