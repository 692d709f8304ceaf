package plan

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sqlshare/internal/engine"
	"sqlshare/internal/sqltypes"
	"sqlshare/internal/storage"
)

func testResolver(t testing.TB) engine.MapResolver {
	t.Helper()
	incomes := storage.NewTable("incomes", storage.Schema{
		{Name: "income", Type: sqltypes.Int},
		{Name: "name", Type: sqltypes.String},
		{Name: "position", Type: sqltypes.String},
	})
	rows := []storage.Row{
		{sqltypes.NewInt(100000), sqltypes.NewString("a"), sqltypes.NewString("x")},
		{sqltypes.NewInt(600000), sqltypes.NewString("b"), sqltypes.NewString("y")},
		{sqltypes.NewInt(700000), sqltypes.NewString("c"), sqltypes.NewString("z")},
	}
	if err := incomes.Insert(rows); err != nil {
		t.Fatal(err)
	}
	return engine.MapResolver{Tables: map[string]*storage.Table{"incomes": incomes}}
}

func TestExplainListingOne(t *testing.T) {
	// The paper's Listing 1 query.
	qp, err := Explain("SELECT * FROM incomes WHERE income > 500000", testResolver(t))
	if err != nil {
		t.Fatal(err)
	}
	if qp.Root == nil {
		t.Fatal("no plan root")
	}
	// The seek on the clustered leading column should appear.
	found := false
	qp.Walk(func(n *Node) {
		if n.PhysicalOp == "Clustered Index Seek" {
			found = true
			if len(n.Filters) == 0 {
				t.Error("seek should carry its filter clause")
			}
			if n.IO <= 0 {
				t.Error("seek should have io cost")
			}
		}
	})
	if !found {
		t.Errorf("no Clustered Index Seek in plan")
	}
	if len(qp.Tables) != 1 || qp.Tables[0] != "incomes" {
		t.Errorf("tables = %v", qp.Tables)
	}
	cols := qp.Columns["incomes"]
	if len(cols) != 3 {
		t.Errorf("columns = %v (star should reference all three)", cols)
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	qp, err := Explain("SELECT name, COUNT(*) FROM incomes GROUP BY name", testResolver(t))
	if err != nil {
		t.Fatal(err)
	}
	data, err := qp.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back QueryPlan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Root.PhysicalOp != qp.Root.PhysicalOp {
		t.Errorf("round trip: %q vs %q", back.Root.PhysicalOp, qp.Root.PhysicalOp)
	}
}

func TestOperatorCounts(t *testing.T) {
	qp, err := Explain("SELECT name, COUNT(*) AS n FROM incomes GROUP BY name ORDER BY n DESC", testResolver(t))
	if err != nil {
		t.Fatal(err)
	}
	counts := qp.OperatorCounts()
	// GROUP BY over an unsorted column hashes ("Hash Match"/Aggregate).
	if counts["Hash Match"] != 1 {
		t.Errorf("hash aggregate count = %d (%v)", counts["Hash Match"], counts)
	}
	if counts["Sort"] < 1 { // the ORDER BY
		t.Errorf("sort count = %d (%v)", counts["Sort"], counts)
	}
	if qp.DistinctOperators() < 3 {
		t.Errorf("distinct ops = %d", qp.DistinctOperators())
	}
	// A scalar aggregate streams.
	qp2, err := Explain("SELECT COUNT(*) FROM incomes", testResolver(t))
	if err != nil {
		t.Fatal(err)
	}
	if qp2.OperatorCounts()["Stream Aggregate"] != 1 {
		t.Errorf("scalar aggregate ops = %v", qp2.OperatorCounts())
	}
}

func TestInvisibleProjectionSpliced(t *testing.T) {
	qp, err := Explain("SELECT name FROM incomes", testResolver(t))
	if err != nil {
		t.Fatal(err)
	}
	qp.Walk(func(n *Node) {
		if n.PhysicalOp == "" {
			t.Error("empty physical op leaked into extracted plan")
		}
	})
	// A trivial projection over a scan is just the scan.
	if qp.Root.PhysicalOp != "Clustered Index Scan" {
		t.Errorf("root = %q", qp.Root.PhysicalOp)
	}
}

// TestExpressionOperators: Phase 2's expression census is the one the
// engine counted while compiling the plan.
func TestExpressionOperators(t *testing.T) {
	qp, md, err := Analyze(`SELECT SUBSTRING(name, 1, 2), income + 1, income / 2, income * 3 - 4
		FROM incomes WHERE name LIKE 'a%' AND ISNUMERIC(position) = 1`, testResolver(t))
	if err != nil {
		t.Fatal(err)
	}
	ops := md.ExpressionOps
	if !reflect.DeepEqual(ops, qp.ExprOps) {
		t.Errorf("census %v is not the plan's %v", ops, qp.ExprOps)
	}
	for _, want := range []string{"substring", "like", "isnumeric"} {
		if ops[want] == 0 {
			t.Errorf("missing %s: %v", want, ops)
		}
	}
	if ops["ADD"] != 1 || ops["DIV"] != 1 || ops["MULT"] != 1 || ops["SUB"] != 1 {
		t.Errorf("arith ops: %v", ops)
	}
}

func TestTemplateUnifiesLiterals(t *testing.T) {
	res := testResolver(t)
	a, err := Explain("SELECT * FROM incomes WHERE income > 500000", res)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explain("SELECT * FROM incomes WHERE income > 9", res)
	if err != nil {
		t.Fatal(err)
	}
	if a.Template() != b.Template() {
		t.Errorf("templates differ:\n%s\n%s", a.Template(), b.Template())
	}
	c, err := Explain("SELECT * FROM incomes WHERE name = 'x'", res)
	if err != nil {
		t.Fatal(err)
	}
	if a.Template() == c.Template() {
		t.Error("different predicates should not share a template")
	}
}

func TestTemplateUnifiesSyntaxVariants(t *testing.T) {
	// JOIN ... ON vs WHERE equi-join produce the same plan template.
	other := storage.NewTable("other", storage.Schema{
		{Name: "income", Type: sqltypes.Int},
		{Name: "tag", Type: sqltypes.String},
	})
	if err := other.Insert([]storage.Row{{sqltypes.NewInt(100000), sqltypes.NewString("t")}}); err != nil {
		t.Fatal(err)
	}
	res := testResolver(t)
	res.Tables["other"] = other
	a, err := Explain("SELECT i.name FROM incomes i JOIN other o ON i.income = o.income", res)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explain("SELECT i.name FROM incomes i, other o WHERE i.income = o.income", res)
	if err != nil {
		t.Fatal(err)
	}
	if a.Template() != b.Template() {
		t.Errorf("syntax variants should share a template:\n%s\n%s", a.Template(), b.Template())
	}
}

func TestNormalizeClause(t *testing.T) {
	a := NormalizeClause("income > 500000")
	b := NormalizeClause("income > 9")
	if a != b {
		t.Errorf("normalized clauses differ: %q vs %q", a, b)
	}
	if !strings.Contains(a, "?") {
		t.Errorf("literal not masked: %q", a)
	}
	if NormalizeClause("name = 'bob'") != NormalizeClause("name = 'alice'") {
		t.Error("string literals should normalize identically")
	}
}

func TestExtractMetadata(t *testing.T) {
	sql := "SELECT name, COUNT(*) FROM incomes WHERE income > 10 GROUP BY name"
	qp, md, err := Analyze(sql, testResolver(t))
	if err != nil {
		t.Fatal(err)
	}
	if md.Length != len(sql) {
		t.Errorf("length = %d", md.Length)
	}
	if md.NumOperators != qp.NumOperators() || md.NumOperators == 0 {
		t.Errorf("operators = %d", md.NumOperators)
	}
	if md.EstimatedCost <= 0 {
		t.Errorf("cost = %v", md.EstimatedCost)
	}
	if md.Template == "" {
		t.Error("template empty")
	}
	if len(md.Tables) != 1 {
		t.Errorf("tables = %v", md.Tables)
	}
}

func TestColumnSetKey(t *testing.T) {
	res := testResolver(t)
	a, err := Explain("SELECT name FROM incomes WHERE income > 1", res)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explain("SELECT name FROM incomes WHERE income > 2000", res)
	if err != nil {
		t.Fatal(err)
	}
	if a.ColumnSetKey() != b.ColumnSetKey() {
		t.Errorf("column-distinct metric should unify these: %q vs %q", a.ColumnSetKey(), b.ColumnSetKey())
	}
	c, err := Explain("SELECT position FROM incomes", res)
	if err != nil {
		t.Fatal(err)
	}
	if a.ColumnSetKey() == c.ColumnSetKey() {
		t.Error("different column sets should differ")
	}
}
