package sqlparser

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// lexer tokenizes SQL text. It supports '--' line comments, /* */ block
// comments, 'single quoted' strings with ” escapes, [bracketed] and
// "double quoted" identifiers, and the usual operator set.
type lexer struct {
	src string
	pos int
}

func newLexer(src string) *lexer { return &lexer{src: src} }

// Lex returns all tokens of src plus a trailing EOF token.
func Lex(src string) ([]Token, error) {
	lx := newLexer(src)
	// A statement averages three or more bytes a token, so one allocation
	// holds most statements' tokens.
	toks := make([]Token, 0, len(src)/3+2)
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == TokEOF {
			return toks, nil
		}
	}
}

func (lx *lexer) next() (Token, error) {
	lx.skipSpaceAndComments()
	start := lx.pos
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := lx.src[lx.pos]
	switch {
	case c == '\'':
		return lx.lexString(start)
	case c == '[':
		return lx.lexBracketIdent(start)
	case c == '"':
		return lx.lexQuotedIdent(start)
	case c >= '0' && c <= '9':
		return lx.lexNumber(start)
	case c == '.' && lx.pos+1 < len(lx.src) && isDigit(lx.src[lx.pos+1]):
		return lx.lexNumber(start)
	case c < utf8.RuneSelf && isIdentStart(rune(c)):
		return lx.lexIdent(start)
	case c >= utf8.RuneSelf:
		// Multi-byte input must be decoded, not byte-cast: the raw byte
		// 0xFF would cast to the letter ÿ while being invalid UTF-8.
		// Non-identifier runes (including invalid encodings) are rejected
		// with progress, never re-scanned.
		r, size := utf8.DecodeRuneInString(lx.src[lx.pos:])
		if isIdentStart(r) {
			return lx.lexIdent(start)
		}
		lx.pos += size
		return Token{}, &Error{Pos: start, Msg: "unexpected character " + string(r)}
	default:
		return lx.lexOp(start)
	}
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			lx.pos++
		case c == '-' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '-':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			lx.pos += 2
			for lx.pos+1 < len(lx.src) && !(lx.src[lx.pos] == '*' && lx.src[lx.pos+1] == '/') {
				lx.pos++
			}
			lx.pos += 2
			if lx.pos > len(lx.src) {
				lx.pos = len(lx.src)
			}
		default:
			return
		}
	}
}

func (lx *lexer) lexString(start int) (Token, error) {
	var sb strings.Builder
	lx.pos++ // opening quote
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == '\'' {
			if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '\'' {
				sb.WriteByte('\'')
				lx.pos += 2
				continue
			}
			lx.pos++
			return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
		}
		sb.WriteByte(c)
		lx.pos++
	}
	return Token{}, &Error{Pos: start, Msg: "unterminated string literal"}
}

func (lx *lexer) lexBracketIdent(start int) (Token, error) {
	lx.pos++ // [
	// An identifier with no "]]" escape is a slice of the source.
	if n := strings.IndexByte(lx.src[lx.pos:], ']'); n > 0 {
		if end := lx.pos + n; end+1 >= len(lx.src) || lx.src[end+1] != ']' {
			text := lx.src[lx.pos:end]
			lx.pos = end + 1
			return Token{Kind: TokIdent, Text: text, Pos: start}, nil
		}
	}
	var sb strings.Builder
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == ']' {
			// "]]" escapes a literal ']' inside the identifier.
			if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == ']' {
				sb.WriteByte(']')
				lx.pos += 2
				continue
			}
			lx.pos++
			if sb.Len() == 0 {
				return Token{}, &Error{Pos: start, Msg: "empty [identifier]"}
			}
			return Token{Kind: TokIdent, Text: sb.String(), Pos: start}, nil
		}
		sb.WriteByte(c)
		lx.pos++
	}
	return Token{}, &Error{Pos: start, Msg: "unterminated [identifier"}
}

func (lx *lexer) lexQuotedIdent(start int) (Token, error) {
	lx.pos++ // "
	end := strings.IndexByte(lx.src[lx.pos:], '"')
	if end < 0 {
		return Token{}, &Error{Pos: start, Msg: `unterminated "identifier`}
	}
	if end == 0 {
		return Token{}, &Error{Pos: start, Msg: `empty "identifier"`}
	}
	text := lx.src[lx.pos : lx.pos+end]
	lx.pos += end + 1
	return Token{Kind: TokIdent, Text: text, Pos: start}, nil
}

func (lx *lexer) lexNumber(start int) (Token, error) {
	seenDot, seenExp := false, false
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c >= '0' && c <= '9':
			lx.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			lx.pos++
		case (c == 'e' || c == 'E') && !seenExp && lx.pos+1 < len(lx.src) &&
			(isDigit(lx.src[lx.pos+1]) || ((lx.src[lx.pos+1] == '+' || lx.src[lx.pos+1] == '-') && lx.pos+2 < len(lx.src) && isDigit(lx.src[lx.pos+2]))):
			seenExp = true
			lx.pos++
			if lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-' {
				lx.pos++
			}
		default:
			return Token{Kind: TokNumber, Text: lx.src[start:lx.pos], Pos: start}, nil
		}
	}
	return Token{Kind: TokNumber, Text: lx.src[start:lx.pos], Pos: start}, nil
}

func (lx *lexer) lexIdent(start int) (Token, error) {
	for lx.pos < len(lx.src) {
		r, size := utf8.DecodeRuneInString(lx.src[lx.pos:])
		if !isIdentPart(r) {
			break
		}
		lx.pos += size
	}
	if lx.pos == start {
		// Defense in depth: an identifier scan must always make progress.
		lx.pos++
		return Token{}, &Error{Pos: start, Msg: "invalid identifier byte"}
	}
	text := lx.src[start:lx.pos]
	if kw := keyword(text); kw != "" {
		return Token{Kind: TokKeyword, Text: kw, Pos: start}, nil
	}
	return Token{Kind: TokIdent, Text: text, Pos: start}, nil
}

// keyword returns the keywords map's spelling of text upper-cased, or "".
// A short ASCII text is upper-cased on the stack: no case allocates.
func keyword(text string) string {
	var buf [24]byte
	if len(text) > len(buf) {
		return keywords[strings.ToUpper(text)]
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= utf8.RuneSelf {
			return keywords[strings.ToUpper(text)]
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return keywords[string(buf[:len(text)])]
}

var twoCharOps = map[string]bool{
	"<=": true, ">=": true, "<>": true, "!=": true, "||": true,
}

func (lx *lexer) lexOp(start int) (Token, error) {
	if lx.pos+1 < len(lx.src) && twoCharOps[lx.src[lx.pos:lx.pos+2]] {
		lx.pos += 2
		return Token{Kind: TokOp, Text: lx.src[start : start+2], Pos: start}, nil
	}
	c := lx.src[lx.pos]
	switch c {
	case '+', '-', '*', '/', '%', '=', '<', '>', '(', ')', ',', '.', ';':
		lx.pos++
		return Token{Kind: TokOp, Text: lx.src[start : start+1], Pos: start}, nil
	}
	return Token{}, &Error{Pos: start, Msg: "unexpected character " + string(c)}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || r == '@' || r == '#' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || unicode.IsDigit(r) || r == '$'
}
