// Package sqlparser implements a hand-written lexer and recursive-descent
// parser for the SQL dialect SQLShare exposed to its users (paper §3.5):
// full SELECT with joins, subqueries, set operations, GROUP BY/HAVING,
// ORDER BY, TOP, DISTINCT, CASE, CAST, BETWEEN, LIKE, IN, EXISTS, window
// functions (OVER), and the T-SQL-flavoured scalar function library the
// workload study observes. SQLShare never exposed DDL or DML to users, so
// the grammar covers queries only.
package sqlparser

import "fmt"

// TokenKind classifies a lexical token.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString
	TokOp
)

// Token is a single lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; idents keep original case
	Pos  int    // byte offset in the input
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("string %q", t.Text)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// keywords maps each reserved word to itself: an identifier that matches one
// case-insensitively is tokenized as a keyword, spelled as the map's value.
var keywords = map[string]string{
	"SELECT": "SELECT", "FROM": "FROM", "WHERE": "WHERE", "GROUP": "GROUP", "BY": "BY",
	"HAVING": "HAVING", "ORDER": "ORDER", "ASC": "ASC", "DESC": "DESC",
	"DISTINCT": "DISTINCT", "ALL": "ALL", "TOP": "TOP", "PERCENT": "PERCENT",
	"AS": "AS", "ON": "ON", "JOIN": "JOIN", "INNER": "INNER", "LEFT": "LEFT",
	"RIGHT": "RIGHT", "FULL": "FULL", "OUTER": "OUTER", "CROSS": "CROSS",
	"UNION": "UNION", "INTERSECT": "INTERSECT", "EXCEPT": "EXCEPT",
	"AND": "AND", "OR": "OR", "NOT": "NOT", "IN": "IN", "EXISTS": "EXISTS",
	"BETWEEN": "BETWEEN", "LIKE": "LIKE", "ESCAPE": "ESCAPE", "IS": "IS", "NULL": "NULL",
	"CASE": "CASE", "WHEN": "WHEN", "THEN": "THEN", "ELSE": "ELSE", "END": "END",
	"CAST": "CAST", "CONVERT": "CONVERT", "OVER": "OVER", "PARTITION": "PARTITION",
	"TRUE": "TRUE", "FALSE": "FALSE", "LIMIT": "LIMIT", "OFFSET": "OFFSET", "WITH": "WITH",
	"EXPLAIN": "EXPLAIN", "ANALYZE": "ANALYZE",
}

// Errorf builds a parse error that carries the byte position.
type Error struct {
	Pos int
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("sql parse error at offset %d: %s", e.Pos, e.Msg) }
