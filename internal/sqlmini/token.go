// Package sqlmini implements the SQL subset used in Starburst rule
// conditions and actions: SELECT (with joins, subqueries, aggregates),
// INSERT (values or query), DELETE, UPDATE, and ROLLBACK, plus references
// to the transition tables inserted, deleted, new-updated, and old-updated
// of Section 2 of the paper.
//
// The package provides four layers: lexing/parsing to an AST, name
// resolution against a schema (with the rule's triggering table supplying
// the transition-table bindings), static analysis computing the Reads and
// Performs sets of Section 3, and evaluation against a storage.DB.
package sqlmini

import (
	"fmt"
	"strconv"
	"strings"

	"activerules/internal/storage"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokPunct // single punctuation: ( ) , . * + - / %
	tokOp    // comparison: = <> < <= > >=
)

// token is one lexical token with its source position (byte offset).
type token struct {
	kind tokenKind
	text string // canonical text: keywords lowercased
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// keywords of the SQL subset. Transition-table names are deliberately not
// keywords; they are resolved as table references.
var keywords = map[string]bool{
	"select": true, "from": true, "where": true, "insert": true,
	"into": true, "values": true, "delete": true, "update": true,
	"set": true, "and": true, "or": true, "not": true, "null": true,
	"is": true, "in": true, "exists": true, "rollback": true,
	"true": true, "false": true, "as": true,
}

// aggregate function names (not reserved; recognized positionally).
var aggregates = map[string]bool{
	"count": true, "sum": true, "min": true, "max": true, "avg": true,
}

// Lexer tokenizes SQL text into scratch it reuses from one text to the
// next. The same pass writes the text's token key and collects the
// values of its literal tokens, so a caller that caches by the key needs
// no second scanner to agree with this one.
//
// The key has one record per token, in order. A record starts with one
// byte below 0x20, the token's kind. A word, operator or punctuation
// record goes on with the token's canonical text (a word lowercased,
// "!=" written "<>"), whose bytes are all printable. A number, string,
// true or false literal is the kind byte alone, and its value goes to
// Params instead. So the key is uniquely decodable, and two texts share
// a key exactly when they lex to the same tokens but for the values of
// their literals: the spacing, comments and letter case that the lexer
// drops never reach it. Two tokens the parser reads a value from are no
// literals of the key: a null stays a word, since it has one value and
// the null of "is null" is no literal, and an integer after the word
// limit keeps its digits in the key, since it is a LIMIT count whenever
// the text parses.
//
// A string literal's value is copied out of the text at its exact size,
// so a value that ends up in a stored row never keeps the request text
// alive. Scanning allocates nothing else per token but the lowercased
// text of a word with an upper-case letter; any other word's text is a
// substring of the text.
type Lexer struct {
	src    string
	pos    int
	toks   []token
	key    []byte
	params []storage.Value
	keyed  bool // every literal converted to its value
}

// Lex tokenizes src, replacing what the lexer held, and returns the
// error lexing src fails with, if any.
func (l *Lexer) Lex(src string) error {
	*l = Lexer{src: src, toks: l.toks[:0], key: l.key[:0], params: l.params[:0], keyed: true}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isLetter(c):
			l.lexWord(start)
		case isDigit(c):
			if err := l.lexNumber(start); err != nil {
				return err
			}
		case c == '\'':
			if err := l.lexString(start); err != nil {
				return err
			}
		case c == '<':
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '=' || l.src[l.pos] == '>') {
				l.pos++
			}
			l.emit(tokOp, l.src[start:l.pos], start)
		case c == '>':
			l.pos++
			if l.pos < len(l.src) && l.src[l.pos] == '=' {
				l.pos++
			}
			l.emit(tokOp, l.src[start:l.pos], start)
		case c == '=':
			l.pos++
			l.emit(tokOp, "=", start)
		case c == '!':
			l.pos++
			if l.pos < len(l.src) && l.src[l.pos] == '=' {
				l.pos++
				l.emit(tokOp, "<>", start)
			} else {
				return fmt.Errorf("sql: unexpected '!' at offset %d", start)
			}
		case strings.IndexByte("(),.*+-/%;", c) >= 0:
			l.pos++
			l.emit(tokPunct, l.src[start:l.pos], start)
		default:
			return fmt.Errorf("sql: unexpected character %q at offset %d", c, start)
		}
	}
}

// Key returns the token key of the text last lexed, valid until the
// next Lex, and whether it stands for the text: false when a number
// literal does not convert to a value (parsing the text reports it).
func (l *Lexer) Key() ([]byte, bool) { return l.key, l.keyed }

// Params returns the values of the text's literal tokens, in text
// order, valid until the next Lex and meaningful only when Key reports
// the key usable.
func (l *Lexer) Params() []storage.Value { return l.params }

// Parse parses the tokens of the text last lexed as ParseStatements
// parses the text.
func (l *Lexer) Parse() ([]Statement, error) {
	return (&parser{toks: l.toks}).statements()
}

// emit appends a token that is not a literal and its key record.
func (l *Lexer) emit(kind tokenKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: kind, text: text, pos: pos})
	l.key = append(append(l.key, byte(kind)), text...)
}

func (l *Lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		return
	}
}

// lexWord writes a word's token and record with the word lowercased.
func (l *Lexer) lexWord(start int) {
	l.key = append(l.key, byte(tokIdent))
	at := len(l.key)
	upper := false
	for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
		c := l.src[l.pos]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
			upper = true
		}
		l.key = append(l.key, c)
		l.pos++
	}
	t := token{kind: tokIdent, text: l.src[start:l.pos], pos: start}
	if upper {
		t.text = string(l.key[at:])
	}
	if keywords[t.text] {
		t.kind = tokKeyword
		l.key[at-1] = byte(tokKeyword)
		if b := t.text == "true"; b || t.text == "false" {
			// A boolean is a literal: its record is the kind byte alone.
			l.key = l.key[:at]
			l.params = append(l.params, storage.BoolV(b))
		}
	}
	l.toks = append(l.toks, t)
}

func (l *Lexer) lexNumber(start int) error {
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigit(c) {
			l.pos++
			continue
		}
		if c == '.' && !seenDot && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	// Optional exponent: e or E, optional sign, then digits. Only
	// consumed when well-formed so that "1 error" still lexes as a
	// number followed by an identifier boundary error below.
	seenExp := false
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		j := l.pos + 1
		if j < len(l.src) && (l.src[j] == '+' || l.src[j] == '-') {
			j++
		}
		if j < len(l.src) && isDigit(l.src[j]) {
			for j < len(l.src) && isDigit(l.src[j]) {
				j++
			}
			l.pos = j
			seenExp = true
		}
	}
	if l.pos < len(l.src) && isLetter(l.src[l.pos]) {
		return fmt.Errorf("sql: malformed number at offset %d", start)
	}
	text := l.src[start:l.pos]
	if n := len(l.toks); !seenDot && !seenExp && n > 0 && l.toks[n-1].kind == tokIdent && l.toks[n-1].text == "limit" {
		// A LIMIT count (parseSelect) is no literal node: the parser
		// reads it from the token, so its text stays in the key.
		l.emit(tokInt, text, start)
		return nil
	}
	// The values the parser gives the literal (parsePrimary); a number
	// out of range is its error to report.
	var v storage.Value
	kind := tokInt
	if seenDot || seenExp {
		kind = tokFloat
		f, err := strconv.ParseFloat(text, 64)
		v, l.keyed = storage.FloatV(f), l.keyed && err == nil
	} else {
		i, err := strconv.ParseInt(text, 10, 64)
		v, l.keyed = storage.IntV(i), l.keyed && err == nil
	}
	l.literal(kind, text, v, start)
	return nil
}

// lexString copies the value of a string literal out of the text, into
// a string of its own at its exact size.
func (l *Lexer) lexString(start int) error {
	body := start + 1
	escaped := false // the body holds a doubled quote, one quote of the value
	for i := body; ; i += 2 {
		n := strings.IndexByte(l.src[i:], '\'')
		if n < 0 {
			return fmt.Errorf("sql: unterminated string starting at offset %d", start)
		}
		i += n
		if i+1 < len(l.src) && l.src[i+1] == '\'' {
			escaped = true
			continue
		}
		l.pos = i + 1
		s := l.src[body:i]
		if escaped {
			s = strings.ReplaceAll(s, "''", "'")
		} else {
			s = strings.Clone(s)
		}
		l.literal(tokString, s, storage.StringV(s), start)
		return nil
	}
}

// literal appends a literal token, its kind byte and its value.
func (l *Lexer) literal(kind tokenKind, text string, v storage.Value, pos int) {
	l.toks = append(l.toks, token{kind: kind, text: text, pos: pos})
	l.key = append(l.key, byte(kind))
	l.params = append(l.params, v)
}

func isLetter(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentChar(c byte) bool { return isLetter(c) || isDigit(c) }
