package sqlparser

import "testing"

// FuzzParse checks the parser never panics and that anything it accepts
// renders to canonical SQL that re-parses to the same canonical form (the
// fixed-point property view-saving relies on).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT * FROM t",
		"SELECT a, b AS c FROM t WHERE a > 1 AND b LIKE 'x%' ORDER BY a DESC",
		"SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING COUNT(*) > 2",
		"SELECT TOP 5 PERCENT * FROM t ORDER BY x",
		"SELECT a FROM t UNION ALL SELECT a FROM u INTERSECT SELECT a FROM v",
		"WITH c AS (SELECT 1 AS x) SELECT x FROM c",
		"SELECT ROW_NUMBER() OVER (PARTITION BY g ORDER BY v) FROM t",
		"SELECT CASE WHEN a = 1 THEN 'x' ELSE NULL END FROM t",
		"SELECT CAST(a AS FLOAT), [weird name], 'str''esc' FROM [ta ble]",
		"SELECT * FROM a JOIN b ON a.x = b.y LEFT JOIN c ON b.z = c.z",
		"SELECT (SELECT MAX(x) FROM u WHERE u.k = t.k) FROM t",
		"SELECT -1.5e3 + 2 * (3 - x) / 4 % 5 FROM t",
		"SELECT -(-a), - -a, -(-(-1)) FROM t",
		"select lower(keywords) from MiXeD where x between 1 and 2",
		"SELECT * FROM t WHERE a IN (1, 2) OR NOT EXISTS (SELECT 1 FROM u)",
		"-- comment\nSELECT /* block */ 1",
		"SELECT 1;",
		"",
		"((((",
		"SELECT FROM WHERE",
		"' unterminated",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		out := q.SQL()
		q2, err := Parse(out)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %q -> %q: %v", src, out, err)
		}
		if out2 := q2.SQL(); out2 != out {
			t.Fatalf("canonical form unstable:\n1: %s\n2: %s", out, out2)
		}
	})
}

// FuzzLex checks the lexer terminates and never panics.
func FuzzLex(f *testing.F) {
	for _, s := range []string{"SELECT 1", "[", "'", "1.2.3", "a.b.c", "/* /*", "--"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Lex(src)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].Kind != TokEOF {
			t.Fatal("token stream must end with EOF")
		}
	})
}
