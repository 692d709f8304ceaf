package sqlparser

import (
	"strings"

	"sqlshare/internal/sqltypes"
)

// QueryExpr is a query: a simple SELECT or a set operation over queries.
type QueryExpr interface {
	queryNode()
	// SQL renders the query as canonical SQL text.
	SQL() string
}

// SetOpKind distinguishes the SQL set operators.
type SetOpKind uint8

// Set operator kinds.
const (
	UnionOp SetOpKind = iota
	IntersectOp
	ExceptOp
)

func (k SetOpKind) String() string {
	switch k {
	case UnionOp:
		return "UNION"
	case IntersectOp:
		return "INTERSECT"
	default:
		return "EXCEPT"
	}
}

// SetOp is LEFT op RIGHT, optionally with ALL and a trailing ORDER BY that
// applies to the combined result.
type SetOp struct {
	Kind    SetOpKind
	All     bool
	Left    QueryExpr
	Right   QueryExpr
	OrderBy []OrderItem
}

func (*SetOp) queryNode() {}

// SQL renders the set operation.
func (s *SetOp) SQL() string {
	var sb strings.Builder
	sb.WriteString(s.Left.SQL())
	sb.WriteByte(' ')
	sb.WriteString(s.Kind.String())
	if s.All {
		sb.WriteString(" ALL")
	}
	sb.WriteByte(' ')
	sb.WriteString(s.Right.SQL())
	writeOrderBy(&sb, s.OrderBy)
	return sb.String()
}

// Statement is a top-level SQL statement. SQLShare exposes queries only
// (§3.5), so the statement space is a query, optionally wrapped in the
// EXPLAIN / EXPLAIN ANALYZE introspection prefix.
type Statement interface {
	stmtNode()
	// SQL renders the statement as canonical SQL text.
	SQL() string
}

// QueryStatement adapts a plain query to the Statement interface.
type QueryStatement struct {
	Query QueryExpr
}

func (*QueryStatement) stmtNode() {}

// SQL renders the wrapped query.
func (s *QueryStatement) SQL() string { return s.Query.SQL() }

// ExplainStmt is EXPLAIN [ANALYZE] <query>. Plain EXPLAIN compiles the
// query and reports the estimated plan without executing; EXPLAIN ANALYZE
// executes with per-operator tracing forced on and reports estimates next
// to measured actuals — the live counterpart of the SHOWPLAN telemetry the
// paper's workload study consumed (§4).
type ExplainStmt struct {
	Analyze bool
	Query   QueryExpr
}

func (*ExplainStmt) stmtNode() {}

// SQL renders the EXPLAIN statement.
func (s *ExplainStmt) SQL() string {
	if s.Analyze {
		return "EXPLAIN ANALYZE " + s.Query.SQL()
	}
	return "EXPLAIN " + s.Query.SQL()
}

// CTE is one common table expression of a WITH clause.
type CTE struct {
	Name  string
	Query QueryExpr
}

// With is WITH name AS (...), ... body. CTEs are visible to the body and
// to later CTEs in the same clause.
type With struct {
	CTEs []CTE
	Body QueryExpr
}

func (*With) queryNode() {}

// SQL renders the WITH clause and its body.
func (w *With) SQL() string {
	var sb strings.Builder
	sb.WriteString("WITH ")
	for i, cte := range w.CTEs {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(quoteIdent(cte.Name))
		sb.WriteString(" AS (")
		sb.WriteString(cte.Query.SQL())
		sb.WriteString(")")
	}
	sb.WriteByte(' ')
	sb.WriteString(w.Body.SQL())
	return sb.String()
}

// TopClause is T-SQL's TOP n [PERCENT].
type TopClause struct {
	Count   Expr
	Percent bool
}

// Select is a single SELECT block.
type Select struct {
	Distinct bool
	Top      *TopClause
	Items    []SelectItem
	From     []TableExpr // comma-separated from items (each may be a join tree)
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
}

func (*Select) queryNode() {}

// SQL renders the SELECT block as canonical SQL.
func (s *Select) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	if s.Top != nil {
		sb.WriteString("TOP ")
		sb.WriteString(s.Top.Count.SQL())
		if s.Top.Percent {
			sb.WriteString(" PERCENT")
		}
		sb.WriteByte(' ')
	}
	for i, item := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(item.SQL())
	}
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		for i, te := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(te.SQL())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.SQL())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING ")
		sb.WriteString(s.Having.SQL())
	}
	writeOrderBy(&sb, s.OrderBy)
	return sb.String()
}

func writeOrderBy(sb *strings.Builder, items []OrderItem) {
	if len(items) == 0 {
		return
	}
	sb.WriteString(" ORDER BY ")
	for i, o := range items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(o.Expr.SQL())
		if o.Desc {
			sb.WriteString(" DESC")
		}
	}
}

// SelectItem is one entry of the select list: either *, table.*, or an
// expression with an optional alias.
type SelectItem struct {
	Star          bool
	StarQualifier string // set for table.*
	Expr          Expr
	Alias         string
}

// SQL renders the select item.
func (it SelectItem) SQL() string {
	if it.Star {
		if it.StarQualifier != "" {
			return quoteIdent(it.StarQualifier) + ".*"
		}
		return "*"
	}
	s := it.Expr.SQL()
	if it.Alias != "" {
		s += " AS " + quoteIdent(it.Alias)
	}
	return s
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// JoinKind distinguishes the join flavours.
type JoinKind uint8

// Join kinds.
const (
	InnerJoin JoinKind = iota
	LeftJoin
	RightJoin
	FullJoin
	CrossJoin
)

func (k JoinKind) String() string {
	switch k {
	case InnerJoin:
		return "INNER JOIN"
	case LeftJoin:
		return "LEFT OUTER JOIN"
	case RightJoin:
		return "RIGHT OUTER JOIN"
	case FullJoin:
		return "FULL OUTER JOIN"
	default:
		return "CROSS JOIN"
	}
}

// TableExpr is a FROM-clause item.
type TableExpr interface {
	tableNode()
	// SQL renders the table expression.
	SQL() string
}

// TableName references a dataset (base table or view) with optional alias.
type TableName struct {
	Name  string
	Alias string
}

func (*TableName) tableNode() {}

// SQL renders the table reference.
func (t *TableName) SQL() string {
	s := quoteIdent(t.Name)
	if t.Alias != "" {
		s += " AS " + quoteIdent(t.Alias)
	}
	return s
}

// Binding returns the name the table is known by inside the query.
func (t *TableName) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// SubqueryTable is a derived table: (SELECT ...) AS alias.
type SubqueryTable struct {
	Query QueryExpr
	Alias string
}

func (*SubqueryTable) tableNode() {}

// SQL renders the derived table.
func (t *SubqueryTable) SQL() string {
	return "(" + t.Query.SQL() + ") AS " + quoteIdent(t.Alias)
}

// JoinExpr is a binary join between two table expressions.
type JoinExpr struct {
	Kind  JoinKind
	Left  TableExpr
	Right TableExpr
	On    Expr // nil for CROSS JOIN
}

func (*JoinExpr) tableNode() {}

// SQL renders the join tree.
func (j *JoinExpr) SQL() string {
	s := j.Left.SQL() + " " + j.Kind.String() + " " + j.Right.SQL()
	if j.On != nil {
		s += " ON " + j.On.SQL()
	}
	return s
}

// Expr is a scalar or boolean expression.
type Expr interface {
	exprNode()
	// SQL renders the expression.
	SQL() string
}

// ColumnRef names a column, optionally qualified by a table binding.
type ColumnRef struct {
	Table string
	Name  string
}

func (*ColumnRef) exprNode() {}

// SQL renders the column reference.
func (c *ColumnRef) SQL() string {
	if c.Table != "" {
		return quoteIdent(c.Table) + "." + quoteIdent(c.Name)
	}
	return quoteIdent(c.Name)
}

// Literal is a constant.
type Literal struct {
	Val sqltypes.Value
}

func (*Literal) exprNode() {}

// SQL renders the literal.
func (l *Literal) SQL() string { return l.Val.SQLLiteral() }

// Unary is -x, +x, or NOT x.
type Unary struct {
	Op string // "-", "+", "NOT"
	X  Expr
}

func (*Unary) exprNode() {}

// SQL renders the unary expression.
func (u *Unary) SQL() string {
	if u.Op == "NOT" {
		return "NOT (" + u.X.SQL() + ")"
	}
	x := u.X.SQL()
	if strings.HasPrefix(x, "-") {
		// "-" + "-a" would lex as a comment.
		x = "(" + x + ")"
	}
	return u.Op + x
}

// Binary is a binary operator application: arithmetic (+ - * / %),
// comparison (= <> < <= > >=), logical (AND OR), or string concat (||, +).
type Binary struct {
	Op string
	L  Expr
	R  Expr
}

func (*Binary) exprNode() {}

// SQL renders the binary expression with explicit grouping.
func (b *Binary) SQL() string {
	switch b.Op {
	case "AND", "OR":
		return "(" + b.L.SQL() + " " + b.Op + " " + b.R.SQL() + ")"
	default:
		return "(" + b.L.SQL() + " " + b.Op + " " + b.R.SQL() + ")"
	}
}

// WindowSpec is the OVER(...) clause of a window function.
type WindowSpec struct {
	PartitionBy []Expr
	OrderBy     []OrderItem
}

// SQL renders the OVER clause.
func (w *WindowSpec) SQL() string {
	var sb strings.Builder
	sb.WriteString("OVER (")
	if len(w.PartitionBy) > 0 {
		sb.WriteString("PARTITION BY ")
		for i, e := range w.PartitionBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.SQL())
		}
	}
	if len(w.OrderBy) > 0 {
		if len(w.PartitionBy) > 0 {
			sb.WriteByte(' ')
		}
		var ob strings.Builder
		writeOrderBy(&ob, w.OrderBy)
		sb.WriteString(strings.TrimPrefix(ob.String(), " "))
	}
	sb.WriteByte(')')
	return sb.String()
}

// FuncCall is a function application: scalar function, aggregate, or window
// function (when Over is non-nil). COUNT(*) sets Star.
type FuncCall struct {
	Name     string // upper-cased
	Args     []Expr
	Distinct bool // COUNT(DISTINCT x)
	Star     bool // COUNT(*)
	Over     *WindowSpec
}

func (*FuncCall) exprNode() {}

// SQL renders the call.
func (f *FuncCall) SQL() string {
	var sb strings.Builder
	sb.WriteString(f.Name)
	sb.WriteByte('(')
	if f.Star {
		sb.WriteByte('*')
	} else {
		if f.Distinct {
			sb.WriteString("DISTINCT ")
		}
		for i, a := range f.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(a.SQL())
		}
	}
	sb.WriteByte(')')
	if f.Over != nil {
		sb.WriteByte(' ')
		sb.WriteString(f.Over.SQL())
	}
	return sb.String()
}

// WhenClause is one WHEN ... THEN ... arm of a CASE expression.
type WhenClause struct {
	Cond Expr
	Then Expr
}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr
}

func (*CaseExpr) exprNode() {}

// SQL renders the CASE expression.
func (c *CaseExpr) SQL() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	if c.Operand != nil {
		sb.WriteByte(' ')
		sb.WriteString(c.Operand.SQL())
	}
	for _, w := range c.Whens {
		sb.WriteString(" WHEN ")
		sb.WriteString(w.Cond.SQL())
		sb.WriteString(" THEN ")
		sb.WriteString(w.Then.SQL())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE ")
		sb.WriteString(c.Else.SQL())
	}
	sb.WriteString(" END")
	return sb.String()
}

// CastExpr is CAST(x AS type).
type CastExpr struct {
	X        Expr
	TypeName string // as written, e.g. "VARCHAR(100)"
	Type     sqltypes.Type
}

func (*CastExpr) exprNode() {}

// SQL renders the cast.
func (c *CastExpr) SQL() string {
	return "CAST(" + c.X.SQL() + " AS " + c.TypeName + ")"
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (*IsNullExpr) exprNode() {}

// SQL renders the null test.
func (e *IsNullExpr) SQL() string {
	if e.Not {
		return e.X.SQL() + " IS NOT NULL"
	}
	return e.X.SQL() + " IS NULL"
}

// InExpr is x [NOT] IN (list) or x [NOT] IN (subquery).
type InExpr struct {
	X     Expr
	Not   bool
	List  []Expr    // nil when Query is set
	Query QueryExpr // nil when List is set
}

func (*InExpr) exprNode() {}

// SQL renders the IN test.
func (e *InExpr) SQL() string {
	var sb strings.Builder
	sb.WriteString(e.X.SQL())
	if e.Not {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" IN (")
	if e.Query != nil {
		sb.WriteString(e.Query.SQL())
	} else {
		for i, x := range e.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(x.SQL())
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Not   bool
	Query QueryExpr
}

func (*ExistsExpr) exprNode() {}

// SQL renders the existence test.
func (e *ExistsExpr) SQL() string {
	s := "EXISTS (" + e.Query.SQL() + ")"
	if e.Not {
		return "NOT " + s
	}
	return s
}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X   Expr
	Not bool
	Lo  Expr
	Hi  Expr
}

func (*BetweenExpr) exprNode() {}

// SQL renders the range test.
func (e *BetweenExpr) SQL() string {
	s := e.X.SQL()
	if e.Not {
		s += " NOT"
	}
	return s + " BETWEEN " + e.Lo.SQL() + " AND " + e.Hi.SQL()
}

// LikeExpr is x [NOT] LIKE pattern [ESCAPE esc].
type LikeExpr struct {
	X       Expr
	Not     bool
	Pattern Expr
	Escape  Expr
}

func (*LikeExpr) exprNode() {}

// SQL renders the pattern match.
func (e *LikeExpr) SQL() string {
	s := e.X.SQL()
	if e.Not {
		s += " NOT"
	}
	s += " LIKE " + e.Pattern.SQL()
	if e.Escape != nil {
		s += " ESCAPE " + e.Escape.SQL()
	}
	return s
}

// SubqueryExpr is a scalar subquery used as an expression.
type SubqueryExpr struct {
	Query QueryExpr
}

func (*SubqueryExpr) exprNode() {}

// SQL renders the scalar subquery.
func (e *SubqueryExpr) SQL() string { return "(" + e.Query.SQL() + ")" }

// quoteIdent renders an identifier, bracketing it only when required.
func quoteIdent(name string) string {
	if name == "" {
		return name
	}
	need := false
	for i, r := range name {
		if i == 0 && !isIdentStart(r) {
			need = true
			break
		}
		if i > 0 && !isIdentPart(r) {
			need = true
			break
		}
	}
	if !need && keywords[strings.ToUpper(name)] != "" {
		need = true
	}
	if need {
		return "[" + strings.ReplaceAll(name, "]", "]]") + "]"
	}
	return name
}

// StripOrderBy removes a top-level ORDER BY from the query, returning
// whether anything was removed. SQLShare applies this automatically when a
// query is saved as a view, to comply with the SQL standard (§3.5).
func StripOrderBy(q QueryExpr) bool {
	switch n := q.(type) {
	case *With:
		return StripOrderBy(n.Body)
	case *Select:
		// ORDER BY paired with TOP is semantically significant; keep it,
		// as SQL Server does for TOP views.
		if n.Top != nil {
			return false
		}
		if len(n.OrderBy) > 0 {
			n.OrderBy = nil
			return true
		}
	case *SetOp:
		if len(n.OrderBy) > 0 {
			n.OrderBy = nil
			return true
		}
	}
	return false
}
