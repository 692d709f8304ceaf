package catalog

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"sort"
	"strings"

	"sqlshare/internal/engine"
	"sqlshare/internal/sqlext"
	"sqlshare/internal/sqlparser"
	"sqlshare/internal/wal"
)

// ----------------------------------------------------------------- DOIs
//
// §5.2: "One user minted DOIs for datasets in SQLShare; we are adding DOI
// minting into the interface as a feature in the next release." This is
// that feature: a stable, content-derived identifier for a published
// dataset, so papers can cite it.

// doiPrefix is the DataCite test prefix; a production deployment would use
// its registered prefix.
const doiPrefix = "10.5072/sqlshare"

// MintDOI assigns (or returns the existing) DOI for a dataset. Only the
// owner may mint, and the dataset must be public — a DOI is a promise of
// public resolvability. The identifier is derived from the dataset identity
// and definition, so re-minting is idempotent and two different definitions
// never share a DOI.
func (c *Catalog) MintDOI(owner, name string) (string, error) {
	return c.MintDOIContext(context.Background(), owner, name)
}

// MintDOIContext is MintDOI under a trace context.
func (c *Catalog) MintDOIContext(ctx context.Context, owner, name string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, err := c.state.Load().lookup(owner, name)
	if err != nil {
		return "", err
	}
	if ds.Owner != owner {
		return "", fmt.Errorf("catalog: only the owner can mint a DOI for %q", ds.FullName())
	}
	if ds.Visibility != Public {
		return "", fmt.Errorf("catalog: %q must be public before minting a DOI", ds.FullName())
	}
	if ds.DOI != "" {
		return ds.DOI, nil
	}
	sum := sha256.Sum256([]byte(ds.FullName() + "\x00" + ds.SQL))
	doi := fmt.Sprintf("%s.%s", doiPrefix, hex.EncodeToString(sum[:8]))
	rec := &wal.Record{
		Op: wal.OpMintDOI, Time: c.clock(),
		DatasetOp: &wal.DatasetOp{Owner: owner, Dataset: ds.FullName(), DOI: doi},
	}
	if _, err := c.commit(ctx, rec); err != nil {
		return "", err
	}
	return doi, nil
}

// ResolveDOI finds the dataset carrying a DOI.
func (c *Catalog) ResolveDOI(doi string) (*Dataset, error) {
	for _, ds := range c.state.Load().datasets {
		if ds.DOI == doi && !ds.Deleted {
			return ds.clone(), nil
		}
	}
	return nil, fmt.Errorf("catalog: no dataset with DOI %q", doi)
}

// ----------------------------------------------------------------- macros
//
// §5.2: users applied the same query to multiple source datasets by
// copy-pasting the view definition and changing only the table name —
// "copy-and-paste seems inadequate here; motivated by this finding we
// intend to lift parameterized query macros into the interface". A macro
// differs from a conventional parameterized query in that parameters may
// appear in the FROM clause.

// Macro is a saved query template with named parameters written as
// $name. Parameters may stand for dataset references (FROM positions) or
// literal values.
type Macro struct {
	Owner    string
	Name     string
	Template string
	Params   []string
}

var macroParamRe = regexp.MustCompile(`\$([A-Za-z_][A-Za-z0-9_]*)`)

// parseMacro validates a macro template and infers its parameters from the
// $name placeholders. It is the shared constructor of the save path, journal
// replay and snapshot restore.
func parseMacro(owner, name, template string) (*Macro, error) {
	seen := map[string]bool{}
	var params []string
	for _, m := range macroParamRe.FindAllStringSubmatch(template, -1) {
		if !seen[m[1]] {
			seen[m[1]] = true
			params = append(params, m[1])
		}
	}
	if len(params) == 0 {
		return nil, fmt.Errorf("catalog: macro %q has no $parameters; save a view instead", name)
	}
	sort.Strings(params)
	return &Macro{Owner: owner, Name: name, Template: template, Params: params}, nil
}

// SaveMacro stores a query macro. The template's parameters are inferred
// from its $name placeholders.
func (c *Catalog) SaveMacro(owner, name, template string) (*Macro, error) {
	return c.SaveMacroContext(context.Background(), owner, name, template)
}

// SaveMacroContext is SaveMacro under a trace context.
func (c *Catalog) SaveMacroContext(ctx context.Context, owner, name, template string) (*Macro, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.state.Load()
	if _, ok := s.users[owner]; !ok {
		return nil, fmt.Errorf("catalog: unknown user %q", owner)
	}
	key := owner + "." + name
	if _, ok := s.macros[key]; ok {
		return nil, fmt.Errorf("catalog: macro %q already exists", key)
	}
	if _, err := parseMacro(owner, name, template); err != nil {
		return nil, err
	}
	rec := &wal.Record{
		Op: wal.OpSaveMacro, Time: c.clock(),
		SaveMacro: &wal.SaveMacro{Owner: owner, Name: name, Template: template},
	}
	s, err := c.commit(ctx, rec)
	if err != nil {
		return nil, err
	}
	return s.macros[key], nil
}

// identRe matches a bare or qualified dataset/column identifier.
var identRe = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?$`)

// numberRe matches a numeric literal.
var numberRe = regexp.MustCompile(`^-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// ExpandMacro substitutes arguments into a macro and returns the resulting
// SQL, which is parsed to verify it is a well-formed query. Argument values
// must be identifiers (for FROM-position parameters; they are bracketed),
// numbers, or single-quoted strings — anything else is rejected, which
// keeps expansion injection-free.
func (c *Catalog) ExpandMacro(user, name string, args map[string]string) (string, error) {
	macros := c.state.Load().macros
	mac, ok := macros[user+"."+name]
	if !ok {
		// Fall back to a unique match across owners (macros shared by
		// convention; a fuller permission model could mirror datasets').
		for key, m := range macros {
			if strings.HasSuffix(key, "."+name) {
				if mac != nil {
					return "", fmt.Errorf("catalog: macro name %q is ambiguous", name)
				}
				mac = m
			}
		}
	}
	if mac == nil {
		return "", fmt.Errorf("catalog: macro %q not found", name)
	}
	for _, p := range mac.Params {
		if _, ok := args[p]; !ok {
			return "", fmt.Errorf("catalog: macro %q requires argument $%s", name, p)
		}
	}
	sql := macroParamRe.ReplaceAllStringFunc(mac.Template, func(ph string) string {
		val := args[ph[1:]]
		switch {
		case identRe.MatchString(val):
			return "[" + val + "]"
		case numberRe.MatchString(val):
			return val
		case len(val) >= 2 && val[0] == '\'' && val[len(val)-1] == '\'':
			return val
		default:
			return ph // leaves the placeholder; parse below will fail loudly
		}
	})
	if strings.Contains(sql, "$") {
		return "", fmt.Errorf("catalog: macro %q: invalid argument value (identifiers, numbers or 'strings' only)", name)
	}
	if _, err := sqlparser.Parse(sql); err != nil {
		return "", fmt.Errorf("catalog: macro %q expansion does not parse: %w", name, err)
	}
	return sql, nil
}

// QueryMacro expands and executes a macro in one step, logging the
// expanded query like any other.
func (c *Catalog) QueryMacro(user, name string, args map[string]string) (*LogEntry, error) {
	sql, err := c.ExpandMacro(user, name, args)
	if err != nil {
		return nil, err
	}
	_, entry, err := c.Query(user, sql)
	if err != nil {
		return entry, err
	}
	return entry, nil
}

// -------------------------------------------------------- column patterns
//
// §5.3: "the ability to refer to and transform a set of related columns in
// the same way would simplify query authoring" — implemented by
// internal/sqlext; this is the catalog integration that resolves dataset
// schemas for the expansion.

// ExpandPatterns rewrites the column patterns ([var*], [* EXCEPT ...],
// [$v]) in sql against the referenced datasets' schemas and returns the
// plain SQL. Queries without patterns come back unchanged.
func (c *Catalog) ExpandPatterns(user, sql string) (string, error) {
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return "", err
	}
	// A pattern ranges over the columns of SELECT * FROM [table], as user
	// may read them.
	s := c.state.Load()
	columnsOf := func(table string) ([]string, error) {
		p, err := s.bind(user, &sqlparser.Select{
			Items: []sqlparser.SelectItem{{Star: true}},
			From:  []sqlparser.TableExpr{&sqlparser.TableName{Name: table}},
		}).plan()
		if err != nil {
			return nil, err
		}
		names := make([]string, len(p.Columns))
		for i, col := range p.Columns {
			names[i] = col.Name
		}
		return names, nil
	}
	changed, err := sqlext.Expand(q, columnsOf)
	if err != nil {
		return "", err
	}
	if !changed {
		return sql, nil
	}
	return q.SQL(), nil
}

// QueryWithPatterns expands column patterns and executes the result,
// logging the expanded query.
func (c *Catalog) QueryWithPatterns(user, sql string) (*engine.Result, *LogEntry, error) {
	expanded, err := c.ExpandPatterns(user, sql)
	if err != nil {
		return nil, nil, err
	}
	return c.Query(user, expanded)
}

// Macros lists a user's macros sorted by name.
func (c *Catalog) Macros(owner string) []*Macro {
	var out []*Macro
	for _, m := range c.state.Load().macros {
		if m.Owner == owner {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
