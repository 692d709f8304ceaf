package sqlparser

import (
	"strings"
	"testing"
)

// roundTrip parses, renders, re-parses, and re-renders, asserting the two
// renderings agree (canonical-form fixed point).
func roundTrip(t *testing.T, src string) QueryExpr {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	out := q.SQL()
	q2, err := Parse(out)
	if err != nil {
		t.Fatalf("re-Parse(%q): %v", out, err)
	}
	if out2 := q2.SQL(); out2 != out {
		t.Fatalf("canonical form not a fixed point:\n first=%s\nsecond=%s", out, out2)
	}
	return q
}

func TestParseSimpleSelect(t *testing.T) {
	q := roundTrip(t, "SELECT * FROM incomes WHERE income > 500000")
	sel, ok := q.(*Select)
	if !ok {
		t.Fatalf("not a Select: %T", q)
	}
	if !sel.Items[0].Star {
		t.Error("expected star item")
	}
	if len(sel.From) != 1 {
		t.Fatalf("from items: %d", len(sel.From))
	}
	tn := sel.From[0].(*TableName)
	if tn.Name != "incomes" {
		t.Errorf("table = %q", tn.Name)
	}
	bin, ok := sel.Where.(*Binary)
	if !ok || bin.Op != ">" {
		t.Errorf("where = %#v", sel.Where)
	}
}

func TestParseSelectList(t *testing.T) {
	q := roundTrip(t, "SELECT a, t.b AS bee, t.*, 1 + 2 three FROM t")
	sel := q.(*Select)
	if len(sel.Items) != 4 {
		t.Fatalf("items: %d", len(sel.Items))
	}
	if sel.Items[1].Alias != "bee" {
		t.Errorf("alias = %q", sel.Items[1].Alias)
	}
	if !sel.Items[2].Star || sel.Items[2].StarQualifier != "t" {
		t.Errorf("t.* not recognized: %+v", sel.Items[2])
	}
	if sel.Items[3].Alias != "three" {
		t.Errorf("implicit alias = %q", sel.Items[3].Alias)
	}
}

func TestParseJoins(t *testing.T) {
	q := roundTrip(t, `SELECT a.x, b.y FROM a JOIN b ON a.id = b.id LEFT OUTER JOIN c ON b.id = c.id`)
	sel := q.(*Select)
	outer := sel.From[0].(*JoinExpr)
	if outer.Kind != LeftJoin {
		t.Errorf("outer join kind = %v", outer.Kind)
	}
	inner := outer.Left.(*JoinExpr)
	if inner.Kind != InnerJoin {
		t.Errorf("inner join kind = %v", inner.Kind)
	}
	roundTrip(t, "SELECT * FROM a CROSS JOIN b")
	roundTrip(t, "SELECT * FROM a FULL OUTER JOIN b ON a.k = b.k")
	roundTrip(t, "SELECT * FROM a RIGHT JOIN b ON a.k = b.k")
}

func TestParseImplicitJoin(t *testing.T) {
	q := roundTrip(t, "SELECT * FROM a, b WHERE a.id = b.id")
	sel := q.(*Select)
	if len(sel.From) != 2 {
		t.Fatalf("expected 2 from items, got %d", len(sel.From))
	}
}

func TestParseGroupByHaving(t *testing.T) {
	q := roundTrip(t, `SELECT dept, COUNT(*) AS n, AVG(salary) FROM emp GROUP BY dept HAVING COUNT(*) > 5 ORDER BY n DESC`)
	sel := q.(*Select)
	if len(sel.GroupBy) != 1 || sel.Having == nil || len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Errorf("clauses not parsed: %+v", sel)
	}
	fc := sel.Items[1].Expr.(*FuncCall)
	if fc.Name != "COUNT" || !fc.Star {
		t.Errorf("COUNT(*) = %+v", fc)
	}
}

func TestParseDistinctTop(t *testing.T) {
	q := roundTrip(t, "SELECT DISTINCT TOP 10 name FROM users")
	sel := q.(*Select)
	if !sel.Distinct || sel.Top == nil {
		t.Fatalf("distinct/top: %+v", sel)
	}
	roundTrip(t, "SELECT TOP 5 PERCENT * FROM t ORDER BY x")
}

func TestParseSetOps(t *testing.T) {
	q := roundTrip(t, "SELECT a FROM t UNION SELECT a FROM u UNION ALL SELECT a FROM v")
	top, ok := q.(*SetOp)
	if !ok || top.Kind != UnionOp || !top.All {
		t.Fatalf("top setop: %#v", q)
	}
	inner, ok := top.Left.(*SetOp)
	if !ok || inner.All {
		t.Fatalf("left-assoc union broken: %#v", top.Left)
	}
	roundTrip(t, "SELECT a FROM t INTERSECT SELECT a FROM u")
	roundTrip(t, "SELECT a FROM t EXCEPT SELECT a FROM u")
}

func TestIntersectBindsTighter(t *testing.T) {
	q := roundTrip(t, "SELECT a FROM t UNION SELECT a FROM u INTERSECT SELECT a FROM v")
	top := q.(*SetOp)
	if top.Kind != UnionOp {
		t.Fatalf("top = %v", top.Kind)
	}
	if right, ok := top.Right.(*SetOp); !ok || right.Kind != IntersectOp {
		t.Fatalf("INTERSECT should bind tighter: %#v", top.Right)
	}
}

func TestParseSubqueries(t *testing.T) {
	roundTrip(t, "SELECT * FROM (SELECT a, b FROM t WHERE a > 1) AS sub WHERE b < 10")
	roundTrip(t, "SELECT * FROM t WHERE a IN (SELECT a FROM u)")
	roundTrip(t, "SELECT * FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)")
	roundTrip(t, "SELECT * FROM t WHERE NOT EXISTS (SELECT 1 FROM u)")
	roundTrip(t, "SELECT (SELECT MAX(x) FROM u) AS mx FROM t")
	roundTrip(t, "SELECT * FROM t WHERE a NOT IN (1, 2, 3)")
}

func TestParseCaseCast(t *testing.T) {
	q := roundTrip(t, `SELECT CASE WHEN v = '-999' THEN NULL ELSE CAST(v AS FLOAT) END AS val FROM sensor`)
	sel := q.(*Select)
	ce := sel.Items[0].Expr.(*CaseExpr)
	if ce.Operand != nil || len(ce.Whens) != 1 || ce.Else == nil {
		t.Fatalf("case: %+v", ce)
	}
	roundTrip(t, "SELECT CASE x WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END FROM t")
	roundTrip(t, "SELECT CAST(a AS VARCHAR(100)) FROM t")
}

func TestParseConvert(t *testing.T) {
	q, err := Parse("SELECT CONVERT(FLOAT, x) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	sel := q.(*Select)
	if _, ok := sel.Items[0].Expr.(*CastExpr); !ok {
		t.Fatalf("CONVERT should produce CastExpr: %#v", sel.Items[0].Expr)
	}
}

func TestParseWindowFunctions(t *testing.T) {
	q := roundTrip(t, `SELECT name, ROW_NUMBER() OVER (PARTITION BY dept ORDER BY salary DESC) AS rk FROM emp`)
	sel := q.(*Select)
	fc := sel.Items[1].Expr.(*FuncCall)
	if fc.Over == nil || len(fc.Over.PartitionBy) != 1 || len(fc.Over.OrderBy) != 1 {
		t.Fatalf("window spec: %+v", fc.Over)
	}
	if !UsesWindowFunctions(q) {
		t.Error("UsesWindowFunctions should be true")
	}
	roundTrip(t, "SELECT SUM(x) OVER (ORDER BY d) AS running FROM t")
	roundTrip(t, "SELECT AVG(x) OVER (PARTITION BY g) FROM t")
}

func TestParsePredicates(t *testing.T) {
	roundTrip(t, "SELECT * FROM t WHERE a BETWEEN 1 AND 10")
	roundTrip(t, "SELECT * FROM t WHERE a NOT BETWEEN 1 AND 10")
	roundTrip(t, "SELECT * FROM t WHERE name LIKE 'A%'")
	roundTrip(t, "SELECT * FROM t WHERE name NOT LIKE '%z' ESCAPE '\\'")
	roundTrip(t, "SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL")
	roundTrip(t, "SELECT * FROM t WHERE NOT (a = 1 OR b = 2)")
}

func TestParseOperatorPrecedence(t *testing.T) {
	q := roundTrip(t, "SELECT 1 + 2 * 3 FROM t")
	sel := q.(*Select)
	add := sel.Items[0].Expr.(*Binary)
	if add.Op != "+" {
		t.Fatalf("top op = %s, want +", add.Op)
	}
	mul := add.R.(*Binary)
	if mul.Op != "*" {
		t.Fatalf("right op = %s, want *", mul.Op)
	}
	// AND binds tighter than OR.
	q = roundTrip(t, "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or := q.(*Select).Where.(*Binary)
	if or.Op != "OR" {
		t.Fatalf("top = %s", or.Op)
	}
	if and := or.R.(*Binary); and.Op != "AND" {
		t.Fatalf("right = %s", and.Op)
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	q := roundTrip(t, "SELECT * FROM t WHERE x > -5 AND y < -2.5")
	_ = q
}

func TestParseBracketedIdents(t *testing.T) {
	q := roundTrip(t, `SELECT [column 1], [table].[col] FROM [my dataset]`)
	sel := q.(*Select)
	if sel.From[0].(*TableName).Name != "my dataset" {
		t.Errorf("bracketed table name: %q", sel.From[0].(*TableName).Name)
	}
	cr := sel.Items[0].Expr.(*ColumnRef)
	if cr.Name != "column 1" {
		t.Errorf("bracketed column: %q", cr.Name)
	}
}

func TestParseQualifiedDatasetNames(t *testing.T) {
	q := roundTrip(t, `SELECT * FROM [alice].[water_quality]`)
	tn := q.(*Select).From[0].(*TableName)
	if tn.Name != "alice.water_quality" {
		t.Errorf("qualified name = %q", tn.Name)
	}
}

func TestParseStringFunctions(t *testing.T) {
	roundTrip(t, `SELECT UPPER(name), LEN(name), SUBSTRING(name, 1, 3), CHARINDEX('a', name), PATINDEX('%[0-9]%', name), ISNUMERIC(val) FROM t`)
	roundTrip(t, `SELECT LEFT(name, 2), RIGHT(name, 2) FROM t`)
}

func TestParseComments(t *testing.T) {
	roundTrip(t, "SELECT a -- trailing comment\nFROM t /* block\ncomment */ WHERE a > 0")
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC * FROM t",
		"SELECT FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM (SELECT a FROM t)", // derived table needs alias
		"SELECT * FROM t WHERE a IN ()",
		"SELECT CASE END FROM t",
		"SELECT CAST(a AS blobtype) FROM t",
		"SELECT 'unterminated FROM t",
		"SELECT [unterminated FROM t",
		"SELECT * FROM t extra garbage ~",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestStripOrderBy(t *testing.T) {
	q := MustParse("SELECT a FROM t ORDER BY a")
	if !StripOrderBy(q) {
		t.Fatal("should strip")
	}
	if strings.Contains(q.SQL(), "ORDER BY") {
		t.Fatalf("ORDER BY survived: %s", q.SQL())
	}
	// TOP keeps its ORDER BY.
	q = MustParse("SELECT TOP 5 a FROM t ORDER BY a")
	if StripOrderBy(q) {
		t.Fatal("TOP query should keep ORDER BY")
	}
	// Set operations strip too.
	q = MustParse("SELECT a FROM t UNION SELECT a FROM u ORDER BY a")
	if !StripOrderBy(q) || strings.Contains(q.SQL(), "ORDER BY") {
		t.Fatalf("set-op ORDER BY survived: %s", q.SQL())
	}
}

func TestReferencedTables(t *testing.T) {
	q := MustParse(`SELECT * FROM a JOIN b ON a.x = b.x WHERE a.y IN (SELECT y FROM c) AND EXISTS (SELECT 1 FROM a)`)
	got := ReferencedTables(q)
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("tables = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tables = %v, want %v", got, want)
		}
	}
}

func TestParseDeepNesting(t *testing.T) {
	src := "SELECT * FROM t"
	for i := 0; i < 10; i++ {
		src = "SELECT * FROM (" + src + ") AS s WHERE 1 = 1"
	}
	roundTrip(t, src)
}

func TestParseLongUnionChain(t *testing.T) {
	parts := make([]string, 12)
	for i := range parts {
		parts[i] = "SELECT x FROM part" + string(rune('a'+i))
	}
	roundTrip(t, strings.Join(parts, " UNION ALL "))
}

func TestQuoteIdentInRendering(t *testing.T) {
	q := MustParse("SELECT [select] FROM [group by stuff]")
	out := q.SQL()
	if !strings.Contains(out, "[select]") || !strings.Contains(out, "[group by stuff]") {
		t.Errorf("keywords/spaces should be re-bracketed: %s", out)
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := Lex("1 2.5 .5 1e3 1.5e-2 3E+4")
	if err != nil {
		t.Fatal(err)
	}
	var nums []string
	for _, tok := range toks {
		if tok.Kind == TokNumber {
			nums = append(nums, tok.Text)
		}
	}
	want := []string{"1", "2.5", ".5", "1e3", "1.5e-2", "3E+4"}
	if len(nums) != len(want) {
		t.Fatalf("numbers = %v", nums)
	}
	for i := range want {
		if nums[i] != want[i] {
			t.Fatalf("numbers = %v, want %v", nums, want)
		}
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := Lex("'o''brien'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "o'brien" {
		t.Errorf("escaped string = %q", toks[0].Text)
	}
}

func TestParseWithClause(t *testing.T) {
	q := roundTrip(t, `WITH recent AS (SELECT * FROM obs WHERE d > 5), tally AS (SELECT s, COUNT(*) AS n FROM recent GROUP BY s) SELECT * FROM tally WHERE n > 1`)
	w, ok := q.(*With)
	if !ok {
		t.Fatalf("not a With: %T", q)
	}
	if len(w.CTEs) != 2 || w.CTEs[0].Name != "recent" || w.CTEs[1].Name != "tally" {
		t.Fatalf("ctes: %+v", w.CTEs)
	}
	if _, ok := w.Body.(*Select); !ok {
		t.Fatalf("body: %T", w.Body)
	}
}

func TestWithReferencedTablesExcludeCTEs(t *testing.T) {
	q := MustParse(`WITH a AS (SELECT * FROM real1), b AS (SELECT * FROM a JOIN real2 ON a.x = real2.x) SELECT * FROM b`)
	got := ReferencedTables(q)
	want := map[string]bool{"real1": true, "real2": true}
	if len(got) != 2 {
		t.Fatalf("tables = %v", got)
	}
	for _, n := range got {
		if !want[n] {
			t.Fatalf("unexpected reference %q in %v", n, got)
		}
	}
}

func TestWithStripOrderBy(t *testing.T) {
	q := MustParse("WITH a AS (SELECT * FROM t) SELECT * FROM a ORDER BY 1")
	if !StripOrderBy(q) {
		t.Fatal("should strip through WITH")
	}
	if strings.Contains(q.SQL(), "ORDER BY") {
		t.Fatalf("ORDER BY survived: %s", q.SQL())
	}
}

func TestParseWithErrors(t *testing.T) {
	for _, bad := range []string{
		"WITH SELECT * FROM t",
		"WITH a AS SELECT * FROM t SELECT * FROM a",
		"WITH a AS (SELECT * FROM t)",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestLexInvalidUTF8Terminates(t *testing.T) {
	// Regression: bytes >= 0x80 that are not letters used to loop forever.
	for _, src := range []string{
		"SELECT u.k \xff\xff\xff\x7fk FROM t",
		"\xff", "a\x80b", "SELECT '\xffok' FROM t",
	} {
		if _, err := Parse(src); err == nil {
			// Accepting is fine too (e.g. inside string literals), as long
			// as we got here.
			continue
		}
	}
}

func TestLexUnicodeIdentifiers(t *testing.T) {
	q, err := Parse("SELECT größe FROM tabelle")
	if err != nil {
		t.Fatalf("unicode identifiers should lex: %v", err)
	}
	if cr := q.(*Select).Items[0].Expr.(*ColumnRef); cr.Name != "größe" {
		t.Errorf("name = %q", cr.Name)
	}
}

// lexAllocsBound is the allocations Lex may make on a point-shaped
// statement, its keywords in either case: one, its token slice, sized from
// the statement's length. It made 12 to 19 on these statements when the
// slice grew one append at a time, every identifier was upper-cased on the
// heap to test it for a keyword, a [bracketed] one was copied and every
// one-byte operator was a new string; and 5 on the lower-case one while
// each lower-case keyword was still upper-cased on the heap to spell it.
const lexAllocsBound = 1

// TestLexAllocs bounds Lex's allocations on point lookups.
func TestLexAllocs(t *testing.T) {
	for _, src := range []string{
		"SELECT k, seq, val FROM [obs_03] WHERE k = 1234 AND seq = 17",
		"select k, seq, val from obs_03 where k = 1234 and seq = 17",
		"SELECT COUNT(*) AS n FROM obs_03 WHERE k = 5",
		"SELECT TOP 10 k, name, lat FROM [sites_valid] WHERE k <= 19990 AND lat >= -90 ORDER BY lat DESC, k",
	} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := Lex(src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > lexAllocsBound {
			t.Errorf("Lex(%q) makes %.0f allocations, over the bound of %d", src, allocs, lexAllocsBound)
		}
	}
}
