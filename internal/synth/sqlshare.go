package synth

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"sqlshare/internal/catalog"
	"sqlshare/internal/ingest"
	"sqlshare/internal/workload"
)

// SQLShareConfig scales the SQLShare-like corpus. The defaults produce a
// ~2,000-query corpus whose ratios track the paper's 24,275-query release;
// raise TargetQueries/Users toward 24275/591 for paper scale. Mix,
// JoinDepth and ValueSkew expose the parameterized compiler's dials; their
// zero values reproduce the historical fixed-ratio behaviour.
type SQLShareConfig struct {
	Seed          int64
	Users         int
	TargetQueries int
	Start         time.Time
	// Mix overrides the template-weight distribution (zero = DefaultMix).
	Mix TemplateMix
	// JoinDepth chains extra tables onto join templates (0/1 = two-table).
	JoinDepth int
	// ValueSkew skews predicate literals toward the low end of the domain
	// (0 = uniform).
	ValueSkew float64
}

func (c *SQLShareConfig) defaults() {
	if c.Users <= 0 {
		c.Users = 60
	}
	if c.TargetQueries <= 0 {
		c.TargetQueries = 2000
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2011, 6, 1, 8, 0, 0, 0, time.UTC)
	}
}

// GenReport summarizes what the generator created, including the
// ingest-side §5.1 quantities.
type GenReport struct {
	Users                int
	Uploads              int
	UploadsAllDefaulted  int // files with no usable header at all
	UploadsSomeDefaulted int // files with >=1 defaulted column name
	RaggedFiles          int
	WidenedColumnFiles   int // files where a column reverted to VARCHAR
	DerivedViews         int
	QueriesIssued        int
	QueryErrors          int
}

// userKind is the Figure 13 archetype driving a synthetic user's script.
type userKind int

const (
	userOneShot userKind = iota
	userExploratory
	userAnalytical
	userPipeline
)

// genDataset is the generator's record of a created dataset: the schema
// view the query compiler consumes plus corpus-side bookkeeping.
type genDataset struct {
	TableInfo
	kind   DatasetKind
	public bool
}

type genUser struct {
	name     string
	kind     userKind
	datasets []*genDataset
	// canned holds a pipeline user's fixed processing queries.
	canned []string
	// done marks one-shot users who already had their session.
	done bool
	// viewSeq numbers the user's saved views.
	viewSeq int
	// pipeKind/pipeHeaderless pin a pipeline user's batch format so the
	// canned queries keep working across uploads.
	pipeKind       DatasetKind
	pipeHeaderless bool
	pipeFixed      bool
	// favSQL is an analytical user's favorite query template: the same
	// structure re-issued with fresh literals (__LIT__), the behaviour
	// that makes templates collapse under QPT equivalence (§6.2).
	favSQL string
}

type sqlshareGen struct {
	rng    *rand.Rand
	qg     *QueryGen
	cat    *catalog.Catalog
	now    time.Time
	users  []*genUser
	public []*genDataset
	report GenReport
	target int
	// log collects every entry the catalog hands back: the whole corpus,
	// where the catalog's own log is a bounded window.
	log []*catalog.LogEntry
}

// GenerateSQLShare builds the SQLShare-like corpus: users with one-shot,
// exploratory, analytical and pipeline scripts upload dirty datasets
// through real ingest, derive and share views, and issue hand-written-style
// queries through the real engine. Deterministic for a given config.
func GenerateSQLShare(cfg SQLShareConfig) (*workload.Corpus, *GenReport, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &sqlshareGen{
		rng:    rng,
		qg:     NewQueryGen(rng, cfg.Mix, cfg.JoinDepth, cfg.ValueSkew),
		cat:    catalog.New(),
		now:    cfg.Start,
		target: cfg.TargetQueries,
	}
	g.cat.SetClock(func() time.Time { return g.now })

	// User population mirroring the Figure 13 mix.
	for i := 0; i < cfg.Users; i++ {
		kind := userExploratory
		switch r := g.rng.Float64(); {
		case r < 0.30:
			kind = userOneShot
		case r < 0.80:
			kind = userExploratory
		case r < 0.93:
			kind = userAnalytical
		default:
			kind = userPipeline
		}
		name := fmt.Sprintf("user%03d", i)
		email := name + "@uw.edu"
		if g.rng.Float64() > 0.44 { // 260/591 are .edu; the rest vary
			email = name + "@example.org"
		}
		if _, err := g.cat.CreateUser(name, email); err != nil {
			return nil, nil, err
		}
		g.users = append(g.users, &genUser{name: name, kind: kind})
	}
	g.report.Users = cfg.Users

	// Analytical and pipeline users get their base datasets up front.
	for _, u := range g.users {
		switch u.kind {
		case userAnalytical:
			n := 3 + g.rng.Intn(6)
			for i := 0; i < n; i++ {
				g.upload(u)
			}
			g.buildViewChain(u, 2+g.rng.Intn(7))
		case userPipeline:
			g.upload(u)
			g.prepareCanned(u)
		}
		g.advance(time.Duration(1+g.rng.Intn(48)) * time.Hour)
	}

	// Interleaved sessions until the query target is met.
	for g.report.QueriesIssued < g.target {
		u := g.pickSessionUser()
		if u == nil {
			break
		}
		g.session(u)
		g.advance(time.Duration(1+g.rng.Intn(30)) * time.Hour)
	}

	corpus := &workload.Corpus{Name: "SQLShare", Catalog: g.cat, Entries: g.log}
	rep := g.report
	return corpus, &rep, nil
}

func (g *sqlshareGen) advance(d time.Duration) { g.now = g.now.Add(d) }

// pickSessionUser selects the next active user: analytical users dominate
// traffic (the paper's most active users account for a large share).
func (g *sqlshareGen) pickSessionUser() *genUser {
	for tries := 0; tries < 100; tries++ {
		u := pick(g.rng, g.users)
		if u == nil {
			return nil
		}
		if u.kind == userOneShot && u.done {
			continue
		}
		// Weight: analytical users are far more active.
		switch u.kind {
		case userAnalytical:
			return u
		case userPipeline:
			if g.rng.Float64() < 0.8 {
				return u
			}
		default:
			if g.rng.Float64() < 0.5 {
				return u
			}
		}
	}
	return nil
}

// session runs one sitting for a user according to their archetype.
func (g *sqlshareGen) session(u *genUser) {
	switch u.kind {
	case userOneShot:
		ds := g.upload(u)
		n := 1 + g.rng.Intn(8)
		for i := 0; i < n && ds != nil; i++ {
			g.issue(u, g.buildQuery(u, ds))
			g.advance(time.Duration(1+g.rng.Intn(20)) * time.Minute)
		}
		u.done = true
	case userExploratory:
		// Upload, poke at it briefly, maybe derive/share, move on.
		var ds *genDataset
		if len(u.datasets) == 0 || g.rng.Float64() < 0.6 {
			ds = g.upload(u)
		} else {
			ds = pick(g.rng, u.datasets)
		}
		if ds == nil {
			return
		}
		n := 1 + g.rng.Intn(4)
		for i := 0; i < n; i++ {
			target := ds
			// ~10% of queries touch someone else's dataset (§5.2).
			if len(g.public) > 0 && g.rng.Float64() < 0.12 {
				if o := pick(g.rng, g.public); o != nil && o.Owner != u.name {
					target = o
				}
			}
			g.issue(u, g.buildQuery(u, target))
			g.advance(time.Duration(1+g.rng.Intn(15)) * time.Minute)
		}
		switch {
		case len(g.public) > 0 && g.rng.Float64() < 0.06:
			// Derive a view over a collaborator's published dataset — the
			// cross-owner views of §5.2.
			if o := pick(g.rng, g.public); o != nil && o.Owner != u.name {
				g.saveDerivedView(u, o)
			}
		case g.rng.Float64() < 0.62:
			// Derive from any owned dataset — including existing derived
			// views, which is what builds the deep chains of Figure 6.
			g.saveDerivedView(u, pick(g.rng, u.datasets))
		}
	case userAnalytical:
		// Query the established datasets repeatedly; occasionally extend
		// the view chain or add a dataset.
		if len(u.datasets) == 0 {
			g.upload(u)
		}
		if u.favSQL == "" && len(u.datasets) > 0 {
			if ds := u.datasets[0]; len(numericCols(ds.Cols)) > 0 {
				n := numericCols(ds.Cols)[0]
				u.favSQL = fmt.Sprintf("SELECT * FROM %s WHERE %s > __LIT__", ds.Ref(u.name), bracket(n.Name))
				if g.rng.Float64() < 0.5 {
					u.favSQL += fmt.Sprintf(" ORDER BY %s DESC", bracket(n.Name))
				}
			}
		}
		n := 6 + g.rng.Intn(12)
		for i := 0; i < n && len(u.datasets) > 0; i++ {
			// A third of the sitting re-runs the favorite with a new
			// threshold (copy-paste-edit, §3.5).
			switch {
			case u.favSQL != "" && g.rng.Float64() < 0.33:
				g.issue(u, strings.ReplaceAll(u.favSQL, "__LIT__", fmt.Sprintf("%.3f", g.rng.Float64()*40)))
			case len(g.public) > 0 && g.rng.Float64() < 0.14:
				// Integrating a collaborator's published dataset (§5.2).
				if o := pick(g.rng, g.public); o != nil && o.Owner != u.name {
					g.issue(u, g.buildQuery(u, o))
				} else {
					g.issue(u, g.buildQuery(u, pick(g.rng, u.datasets)))
				}
			default:
				ds := pick(g.rng, u.datasets)
				g.issue(u, g.buildQuery(u, ds))
			}
			g.advance(time.Duration(1+g.rng.Intn(10)) * time.Minute)
		}
		if g.rng.Float64() < 0.05 {
			g.upload(u)
		}
		if g.rng.Float64() < 0.3 {
			g.saveDerivedView(u, pick(g.rng, u.datasets))
		}
	case userPipeline:
		// The daily-workflow mode: upload a batch, recompose, re-run the
		// same canned queries, sometimes delete the batch afterwards.
		batch := g.upload(u)
		if batch == nil {
			return
		}
		for _, sql := range u.canned {
			g.issue(u, strings.ReplaceAll(sql, "__BATCH__", batch.Ref(u.name)))
			g.advance(time.Duration(1+g.rng.Intn(5)) * time.Minute)
		}
		if g.rng.Float64() < 0.5 {
			_ = g.cat.Delete(u.name, batch.Name)
		}
	}
}

// upload generates and ingests one dirty dataset for the user.
func (g *sqlshareGen) upload(u *genUser) *genDataset {
	kind := DatasetKind(g.rng.Intn(int(NumDatasetKinds)))
	rows := 30 + g.rng.Intn(120)
	headerless := g.rng.Float64() < 0.48
	// Only half the dataset kinds can be ragged, so double the draw rate
	// to land near the paper's 9% of uploads.
	ragged := g.rng.Float64() < 0.18
	sentinels := g.rng.Float64() < 0.5
	if u.kind == userPipeline {
		if u.pipeFixed {
			kind, headerless = u.pipeKind, u.pipeHeaderless
		} else {
			u.pipeKind, u.pipeHeaderless, u.pipeFixed = kind, headerless, true
		}
		ragged = false // recurring instrument output has a stable shape
	}
	if kind == KindSurvey && sentinels {
		rows = 120 + g.rng.Intn(80) // deep enough to trip the type revert
	}
	file := MakeCSV(g.rng, kind, rows, headerless, ragged, sentinels)
	name := fmt.Sprintf("%s_%s_%d", KindName(kind), u.name, len(u.datasets)+1)
	rep, err := ingest.LoadBytes(name, file.Data, ingest.Options{})
	if err != nil {
		return nil
	}
	if _, err := g.cat.CreateDatasetFromTable(u.name, name, rep.Table, catalog.Meta{
		Description: fmt.Sprintf("%s data uploaded by %s", KindName(kind), u.name),
		Tags:        []string{KindName(kind)},
	}); err != nil {
		return nil
	}
	g.report.Uploads++
	if rep.AllDefaulted {
		g.report.UploadsAllDefaulted++
	}
	if rep.DefaultedColumns > 0 {
		g.report.UploadsSomeDefaulted++
	}
	if rep.RaggedRows > 0 {
		g.report.RaggedFiles++
	}
	if len(rep.WidenedColumns) > 0 {
		g.report.WidenedColumnFiles++
	}
	schema := rep.Table.Schema()
	cols := make([]ColumnInfo, len(schema))
	for i, c := range schema {
		cols[i] = ColumnInfo{c.Name, c.Type}
	}
	ds := &genDataset{TableInfo: TableInfo{Owner: u.name, Name: name, Cols: cols}, kind: kind}
	u.datasets = append(u.datasets, ds)
	g.maybeShare(u, ds)
	return ds
}

// maybeShare applies the §5.2 sharing rates: ~37% public, ~9% shared with
// a specific collaborator.
func (g *sqlshareGen) maybeShare(u *genUser, ds *genDataset) {
	r := g.rng.Float64()
	switch {
	case r < 0.37:
		if g.cat.SetVisibility(u.name, ds.Name, catalog.Public) == nil {
			ds.public = true
			g.public = append(g.public, ds)
		}
	case r < 0.46:
		other := pick(g.rng, g.users)
		if other != nil && other.name != u.name {
			_ = g.cat.ShareWith(u.name, ds.Name, other.name)
		}
	}
}

// issue runs one query through the catalog (logging it) and tracks errors.
func (g *sqlshareGen) issue(u *genUser, sql string) {
	if sql == "" {
		return
	}
	g.report.QueriesIssued++
	_, entry, err := g.cat.Query(u.name, sql)
	g.log = append(g.log, entry)
	if err != nil {
		g.report.QueryErrors++
	}
}

// registerView records a saved view as a queryable dataset.
func (g *sqlshareGen) registerView(u *genUser, name string, cols []ColumnInfo, kind DatasetKind) *genDataset {
	ds := &genDataset{TableInfo: TableInfo{Owner: u.name, Name: name, Cols: cols}, kind: kind}
	u.datasets = append(u.datasets, ds)
	g.report.DerivedViews++
	g.maybeShare(u, ds)
	return ds
}
