// Package ruledef parses the Starburst rule definition language of
// Section 2:
//
//	create rule name on table
//	when transition-predicate
//	[if condition]
//	then action
//	[precedes rule-list]
//	[follows rule-list]
//
// where transition-predicate is a comma-separated list of "inserted",
// "deleted", and "updated(c1, ..., cn)" (or bare "updated"), condition is
// an SQL predicate, and action is a ';'-separated sequence of SQL data
// manipulation statements. A definition file may contain any number of
// rules; "--" starts a line comment.
//
// The parser produces rules.Definition values; compile them with
// rules.NewSet, which performs all semantic validation.
package ruledef

import (
	"fmt"
	"strings"

	"activerules/internal/rules"
	"activerules/internal/schema"
)

// Parse parses every rule definition in src.
func Parse(src string) ([]rules.Definition, error) {
	toks, err := lexRuleFile(src)
	if err != nil {
		return nil, err
	}
	var defs []rules.Definition
	p := &defParser{src: src, toks: toks, line: 1, col: 1}
	for !p.eof() {
		def, err := p.parseRule()
		if err != nil {
			return nil, err
		}
		defs = append(defs, def)
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("ruledef: no rule definitions found")
	}
	return defs, nil
}

// MustParse is Parse, panicking on error. Intended for tests/examples.
func MustParse(src string) []rules.Definition {
	defs, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return defs
}

// dtoken is a lexical token of the definition language. The rule DDL only
// needs words, punctuation, and opaque tracking of string literals; SQL
// bodies are carved out as raw source slices and handed to sqlmini.
type dtoken struct {
	text  string // lowercased for words
	pos   int    // byte offset of token start
	end   int    // byte offset just past the token
	depth int    // parenthesis depth at the token
	word  bool
}

func lexRuleFile(src string) ([]dtoken, error) {
	var toks []dtoken
	depth := 0
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '\'':
			start := i
			i++
			closed := false
			for i < len(src) {
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' {
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				i++
			}
			if !closed {
				return nil, fmt.Errorf("ruledef: unterminated string at offset %d", start)
			}
			toks = append(toks, dtoken{text: src[start:i], pos: start, end: i, depth: depth})
		case isWordByte(c):
			start := i
			for i < len(src) && isWordByte(src[i]) {
				i++
			}
			toks = append(toks, dtoken{
				text: strings.ToLower(src[start:i]), pos: start, end: i, depth: depth, word: true})
		default:
			if c == '(' {
				depth++
			}
			toks = append(toks, dtoken{text: string(c), pos: i, end: i + 1, depth: depth})
			if c == ')' {
				depth--
				if depth < 0 {
					return nil, fmt.Errorf("ruledef: unbalanced ')' at offset %d", i)
				}
			}
			i++
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("ruledef: unbalanced '(' at end of input")
	}
	return toks, nil
}

func isWordByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

type defParser struct {
	src  string
	toks []dtoken
	pos  int

	// line and col are the 1-based position of byte offset off, where
	// lineCol's last scan stopped.
	off, line, col int
}

func (p *defParser) eof() bool { return p.pos >= len(p.toks) }

func (p *defParser) cur() dtoken {
	if p.eof() {
		return dtoken{text: "<eof>", pos: len(p.src), end: len(p.src)}
	}
	return p.toks[p.pos]
}

func (p *defParser) errorf(format string, args ...any) error {
	return fmt.Errorf("ruledef: offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *defParser) expectWord(w string) error {
	if p.cur().word && p.cur().text == w {
		p.pos++
		return nil
	}
	return p.errorf("expected %q, found %q", w, p.cur().text)
}

func (p *defParser) acceptWord(w string) bool {
	if p.cur().word && p.cur().text == w {
		p.pos++
		return true
	}
	return false
}

func (p *defParser) expectAnyWord() (string, error) {
	if !p.cur().word {
		return "", p.errorf("expected identifier, found %q", p.cur().text)
	}
	w := p.cur().text
	p.pos++
	return w, nil
}

// sectionHeads are the words that terminate a raw SQL section when seen
// at parenthesis depth 0.
var sectionHeads = map[string]bool{
	"then": true, "precedes": true, "follows": true, "create": true,
}

// rawUntilHead advances past tokens until a section head at depth 0 (or
// EOF) and returns the raw source slice covered.
func (p *defParser) rawUntilHead() string {
	start := p.cur().pos
	end := start
	for !p.eof() {
		t := p.cur()
		if t.word && t.depth == 0 && sectionHeads[t.text] {
			break
		}
		end = t.end
		p.pos++
	}
	return p.src[start:end]
}

// lineCol converts a byte offset into 1-based line and column numbers,
// a column counting bytes. Rules start at growing offsets, so each scan
// resumes where the last one stopped: a file costs one pass, not one per
// rule.
func (p *defParser) lineCol(off int) (line, col int) {
	off = min(off, len(p.src))
	seg := p.src[p.off:off]
	if nl := strings.LastIndexByte(seg, '\n'); nl >= 0 {
		p.line += strings.Count(seg, "\n")
		p.col = len(seg) - nl
	} else {
		p.col += len(seg)
	}
	p.off = off
	return p.line, p.col
}

func (p *defParser) parseRule() (rules.Definition, error) {
	var def rules.Definition
	def.Line, def.Col = p.lineCol(p.cur().pos)
	if err := p.expectWord("create"); err != nil {
		return def, err
	}
	if err := p.expectWord("rule"); err != nil {
		return def, err
	}
	name, err := p.expectAnyWord()
	if err != nil {
		return def, err
	}
	def.Name = name
	if err := p.expectWord("on"); err != nil {
		return def, err
	}
	table, err := p.expectAnyWord()
	if err != nil {
		return def, err
	}
	def.Table = table
	if err := p.expectWord("when"); err != nil {
		return def, err
	}
	for {
		ts, err := p.parseTriggerSpec()
		if err != nil {
			return def, err
		}
		def.Triggers = append(def.Triggers, ts)
		if !p.acceptPunct(",") {
			break
		}
	}
	if p.acceptWord("if") {
		def.Condition = strings.TrimSpace(p.rawUntilHead())
		if def.Condition == "" {
			return def, p.errorf("empty condition after 'if'")
		}
	}
	if err := p.expectWord("then"); err != nil {
		return def, err
	}
	action := strings.TrimSpace(p.rawUntilHead())
	if action == "" {
		return def, p.errorf("empty action after 'then'")
	}
	def.Action = []string{action}
	for {
		switch {
		case p.acceptWord("precedes"):
			if len(def.Precedes) > 0 {
				return def, p.errorf("duplicate precedes clause")
			}
			names, err := p.parseNameList()
			if err != nil {
				return def, err
			}
			def.Precedes = names
		case p.acceptWord("follows"):
			if len(def.Follows) > 0 {
				return def, p.errorf("duplicate follows clause")
			}
			names, err := p.parseNameList()
			if err != nil {
				return def, err
			}
			def.Follows = names
		default:
			return def, nil
		}
	}
}

func (p *defParser) acceptPunct(s string) bool {
	if !p.cur().word && p.cur().text == s {
		p.pos++
		return true
	}
	return false
}

func (p *defParser) parseTriggerSpec() (rules.TriggerSpec, error) {
	w, err := p.expectAnyWord()
	if err != nil {
		return rules.TriggerSpec{}, err
	}
	switch w {
	case "inserted":
		return rules.TriggerSpec{Kind: schema.OpInsert}, nil
	case "deleted":
		return rules.TriggerSpec{Kind: schema.OpDelete}, nil
	case "updated":
		ts := rules.TriggerSpec{Kind: schema.OpUpdate}
		if p.acceptPunct("(") {
			for {
				col, err := p.expectAnyWord()
				if err != nil {
					return ts, err
				}
				ts.Columns = append(ts.Columns, col)
				if !p.acceptPunct(",") {
					break
				}
			}
			if !p.acceptPunct(")") {
				return ts, p.errorf("expected ')' after updated column list")
			}
		}
		return ts, nil
	default:
		return rules.TriggerSpec{}, p.errorf("unknown triggering operation %q (want inserted, deleted, or updated)", w)
	}
}

func (p *defParser) parseNameList() ([]string, error) {
	var names []string
	for {
		n, err := p.expectAnyWord()
		if err != nil {
			return nil, err
		}
		names = append(names, n)
		if !p.acceptPunct(",") {
			return names, nil
		}
	}
}
