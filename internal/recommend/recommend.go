// Package recommend implements the query-recommendation direction the
// paper lays out as future work (§8: "use this definition to build more
// effective query recommendation engines which recommend queries of
// comparable complexity to queries that user has written before"; related
// work cites SnipSuggest). Recommendations are mined from the corpus's
// query-plan templates: the engine finds queries other users ran over
// datasets with a similar column vocabulary, re-targets them at the asking
// user's dataset, and ranks them by template popularity and by closeness
// to the user's own complexity profile.
package recommend

import (
	"sort"
	"strings"

	"sqlshare/internal/catalog"
	"sqlshare/internal/sqlparser"
	"sqlshare/internal/workload"
)

// Recommendation is one suggested query.
type Recommendation struct {
	// SQL is the suggested query, rewritten to target the requested
	// dataset.
	SQL string
	// Support is how many corpus queries share the underlying template.
	Support int
	// Complexity is the template's distinct-operator count.
	Complexity int
	// Score combines support with complexity affinity; higher is better.
	Score float64
	// Origin is the dataset the exemplar query originally targeted.
	Origin string
}

// Engine indexes a corpus for recommendations.
type Engine struct {
	templates map[string]*templateStats
	// userComplexity is each user's mean distinct-operator count.
	userComplexity map[string]float64
	// datasetCols caches the referenced-column sets per dataset.
	datasetCols map[string]map[string]bool
}

type templateStats struct {
	exemplarSQL string
	dataset     string // single-dataset templates only
	columns     map[string]bool
	support     int
	complexity  int
}

// New builds a recommendation index from a corpus.
func New(c *workload.Corpus) *Engine {
	e := &Engine{
		templates:      map[string]*templateStats{},
		userComplexity: map[string]float64{},
		datasetCols:    map[string]map[string]bool{},
	}
	userOps := map[string][]int{}
	for _, entry := range c.Succeeded() {
		userOps[entry.User] = append(userOps[entry.User], entry.Meta.DistinctOperators)
		// Index single-dataset queries: they can be re-targeted wholesale.
		if len(entry.Datasets) != 1 {
			continue
		}
		ds := entry.Datasets[0]
		cols := map[string]bool{}
		for _, colList := range entry.Meta.Columns {
			for _, col := range colList {
				cols[strings.ToLower(col)] = true
			}
		}
		if e.datasetCols[ds] == nil {
			e.datasetCols[ds] = map[string]bool{}
		}
		for col := range cols {
			e.datasetCols[ds][col] = true
		}
		key := entry.Meta.Template
		st := e.templates[key]
		if st == nil {
			st = &templateStats{
				exemplarSQL: entry.SQL,
				dataset:     ds,
				columns:     cols,
				complexity:  entry.Meta.DistinctOperators,
			}
			e.templates[key] = st
		}
		st.support++
	}
	for user, ops := range userOps {
		sum := 0
		for _, d := range ops {
			sum += d
		}
		e.userComplexity[user] = float64(sum) / float64(len(ops))
	}
	return e
}

// Templates reports the number of indexed templates.
func (e *Engine) Templates() int { return len(e.templates) }

// Columns is the schema surface of the target dataset: lower-cased column
// names the rewritten query may reference.
type Columns map[string]bool

// ColumnsOf builds a Columns set.
func ColumnsOf(names []string) Columns {
	out := Columns{}
	for _, n := range names {
		out[strings.ToLower(n)] = true
	}
	return out
}

// ForDataset recommends up to k queries for `user` to run over dataset
// `target` (with the given column set). Candidates are exemplar queries
// whose referenced columns all exist on the target; they are rewritten to
// reference the target and ranked by support and by closeness of their
// complexity to the user's profile — the paper's "comparable complexity"
// criterion.
func (e *Engine) ForDataset(user, target string, cols Columns, k int) []Recommendation {
	profile, hasProfile := e.userComplexity[user]
	var out []Recommendation
	seen := map[string]int{} // retargeted SQL -> index into out
	for _, st := range e.templates {
		if st.dataset == target {
			continue // recommending the user's own exact history is useless
		}
		applicable := true
		for col := range st.columns {
			if !cols[col] {
				applicable = false
				break
			}
		}
		if !applicable || len(st.columns) == 0 {
			continue
		}
		sql, ok := retarget(st.exemplarSQL, st.dataset, target)
		if !ok {
			continue
		}
		score := float64(st.support)
		if hasProfile {
			// Damp templates far from the user's complexity comfort zone.
			gap := profile - float64(st.complexity)
			if gap < 0 {
				gap = -gap
			}
			score /= 1 + gap
		}
		// Two templates over different origins can retarget to the same
		// SQL; merge them, accumulating support.
		if idx, ok := seen[sql]; ok {
			out[idx].Support += st.support
			out[idx].Score += score
			continue
		}
		seen[sql] = len(out)
		out = append(out, Recommendation{
			SQL:        sql,
			Support:    st.support,
			Complexity: st.complexity,
			Score:      score,
			Origin:     st.dataset,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].SQL < out[j].SQL
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// retarget rewrites every reference to dataset `from` in sql to reference
// `to`, by editing the parsed AST (never the text, so literals containing
// the name are safe).
func retarget(sql, from, to string) (string, bool) {
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return "", false
	}
	short := from
	if i := strings.LastIndexByte(from, '.'); i >= 0 {
		short = from[i+1:]
	}
	matched := false
	sqlparser.Walk(q, sqlparser.Visitor{Table: func(t sqlparser.TableExpr) {
		tn, ok := t.(*sqlparser.TableName)
		if !ok {
			return
		}
		if strings.EqualFold(tn.Name, from) || strings.EqualFold(tn.Name, short) {
			tn.Name = to
			matched = true
		}
	}})
	if !matched {
		return "", false
	}
	return q.SQL(), true
}

// CatalogColumns resolves a dataset's column set from a catalog, for
// callers recommending against live datasets.
func CatalogColumns(c *catalog.Catalog, user, dataset string) (Columns, error) {
	pv, err := c.Preview(user, dataset)
	if err != nil {
		return nil, err
	}
	return ColumnsOf(pv.Cols), nil
}
