package plan

import (
	"sort"
	"strings"

	"sqlshare/internal/engine"
	"sqlshare/internal/sqlparser"
)

// Metadata is the Phase-2 output for one query: the per-query features the
// paper's workload study aggregates (Table 2b, Figures 8–10, Table 4).
type Metadata struct {
	// Length is the query text length in ASCII characters (§6.1).
	Length int
	// NumOperators and DistinctOperators count physical plan operators.
	NumOperators      int
	DistinctOperators int
	// OperatorCounts maps physical operator name to occurrences.
	OperatorCounts map[string]int
	// ExpressionOps maps expression operator (Table 4 vocabulary: ADD,
	// DIV, like, substring, ...) to occurrences.
	ExpressionOps map[string]int
	// Tables and Columns are the referenced datasets and their columns.
	Tables  []string
	Columns map[string][]string
	// EstimatedCost is the root total subtree cost.
	EstimatedCost float64
	// Template is the query plan template (QPT): the plan with all
	// constants removed, the paper's strongest query-equivalence metric
	// (§6.2).
	Template string
}

// Extract is Phase 2: derive analysis metadata from a query and its plan.
// The expression census is the plan's own (QueryPlan.ExprOps), which the
// engine counts while it compiles and which sees through views, like the
// paper's SHOWPLAN extraction.
func Extract(sql string, qp *QueryPlan) *Metadata {
	m := &Metadata{
		Length:         len(sql),
		OperatorCounts: qp.OperatorCounts(),
		ExpressionOps:  qp.ExprOps,
		Tables:         append([]string(nil), qp.Tables...),
		Columns:        qp.Columns,
		EstimatedCost:  qp.TotalCost(),
		Template:       qp.Template(),
	}
	m.NumOperators = qp.NumOperators()
	m.DistinctOperators = len(m.OperatorCounts)
	return m
}

// Analyze runs Phase 1 and Phase 2 for one query.
func Analyze(sql string, res engine.Resolver) (*QueryPlan, *Metadata, error) {
	qp, err := Explain(sql, res)
	if err != nil {
		return nil, nil, err
	}
	return qp, Extract(sql, qp), nil
}

// Template renders the query plan template: the operator tree with every
// literal constant removed. Queries that differ only in literal values or
// surface syntax share a template (§6.2).
func (qp *QueryPlan) Template() string {
	var sb strings.Builder
	templateNode(qp.Root, &sb)
	return sb.String()
}

func templateNode(n *Node, sb *strings.Builder) {
	if n == nil {
		return
	}
	sb.WriteString(n.PhysicalOp)
	if n.Object != "" {
		sb.WriteByte('<')
		sb.WriteString(n.Object)
		sb.WriteByte('>')
	}
	if len(n.Filters) > 0 {
		norm := make([]string, len(n.Filters))
		for i, f := range n.Filters {
			norm[i] = NormalizeClause(f)
		}
		sort.Strings(norm)
		sb.WriteByte('{')
		sb.WriteString(strings.Join(norm, "&"))
		sb.WriteByte('}')
	}
	if len(n.Children) > 0 {
		sb.WriteByte('(')
		for i, c := range n.Children {
			if i > 0 {
				sb.WriteByte(',')
			}
			templateNode(c, sb)
		}
		sb.WriteByte(')')
	}
}

// NormalizeClause strips literal constants from a predicate clause,
// replacing them with '?', so that `income > 500000` and `income > 9` are
// the same clause shape.
func NormalizeClause(clause string) string {
	toks, err := sqlparser.Lex(clause)
	if err != nil {
		return clause
	}
	var parts []string
	for _, t := range toks {
		switch t.Kind {
		case sqlparser.TokEOF:
		case sqlparser.TokNumber, sqlparser.TokString:
			parts = append(parts, "?")
		default:
			parts = append(parts, t.Text)
		}
	}
	return strings.Join(parts, " ")
}

// ColumnSetKey renders the set of referenced columns in canonical form —
// the Mozafari et al. query-equivalence metric the paper uses as its
// middle-ground diversity measure (§6.2).
func (qp *QueryPlan) ColumnSetKey() string {
	var parts []string
	for tbl, cols := range qp.Columns {
		sorted := append([]string(nil), cols...)
		sort.Strings(sorted)
		parts = append(parts, tbl+"("+strings.Join(sorted, ",")+")")
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}
