package compile

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"activerules/internal/sqlmini"
	"activerules/internal/storage"
)

// shaper is the reference the text key is held to: it writes a parsed
// statement's shape key from the tree and collects its literals in the
// order the key names them. The key is a preorder of sqlmini.Inspect
// with one record per node: a tag for its type, then its own names,
// operators, flags and counts, including how many children of each kind
// follow. So the key is a prefix code, and two statements share one
// exactly when they differ in nothing but the values of literals of the
// same kind. (UserCache keyed statements by it until it keyed texts by
// their tokens.)
type shaper struct {
	key  []byte
	lits []*sqlmini.Literal
	ok   bool
}

// shape writes st's key and literals, reporting false when st holds a
// node the shaper does not know.
func (s *shaper) shape(st sqlmini.Statement) bool {
	s.key, s.lits, s.ok = s.key[:0], s.lits[:0], true
	sqlmini.Inspect(st, s.node)
	return s.ok
}

// node writes one node's record.
func (s *shaper) node(n sqlmini.Node) bool {
	switch x := n.(type) {
	case *sqlmini.Select:
		s.tag('S')
		s.flag(x.Distinct)
		s.num(len(x.Items))
		for _, it := range x.Items {
			s.flag(it.Expr != nil)
		}
		s.num(len(x.From))
		for _, tr := range x.From {
			s.name(tr.Name)
			s.name(tr.Alias)
		}
		s.flag(x.Where != nil)
		s.num(len(x.GroupBy))
		s.flag(x.Having != nil)
		s.num(len(x.OrderBy))
		for _, o := range x.OrderBy {
			s.flag(o.Desc)
		}
		s.num(x.Limit)
	case *sqlmini.Insert:
		s.tag('I')
		s.name(x.Table)
		s.num(len(x.Columns))
		for _, col := range x.Columns {
			s.name(col)
		}
		s.flag(x.Query != nil)
		s.num(len(x.Rows))
		for _, row := range x.Rows {
			s.num(len(row))
		}
	case *sqlmini.Delete:
		s.tag('D')
		s.name(x.Table)
		s.flag(x.Where != nil)
	case *sqlmini.Update:
		s.tag('U')
		s.name(x.Table)
		s.num(len(x.Sets))
		for _, sc := range x.Sets {
			s.name(sc.Column)
		}
		s.flag(x.Where != nil)
	case *sqlmini.Rollback:
		s.tag('R')
	case *sqlmini.Literal:
		s.tag('l')
		s.tag(byte(x.Val.Kind))
		s.lits = append(s.lits, x)
	case *sqlmini.ColRef:
		s.tag('c')
		s.name(x.Qualifier)
		s.name(x.Column)
	case *sqlmini.Unary:
		s.tag('u')
		s.num(int(x.Op))
	case *sqlmini.Binary:
		s.tag('b')
		s.num(int(x.Op))
	case *sqlmini.IsNull:
		s.tag('n')
		s.flag(x.Negate)
	case *sqlmini.InList:
		s.tag('i')
		s.flag(x.Negate)
		s.num(len(x.Vals))
	case *sqlmini.InSelect:
		s.tag('s')
		s.flag(x.Negate)
	case *sqlmini.Exists:
		s.tag('e')
		s.flag(x.Negate)
	case *sqlmini.ScalarSubquery:
		s.tag('q')
	case *sqlmini.Aggregate:
		s.tag('a')
		s.name(x.Func)
		s.flag(x.Arg != nil)
	default:
		s.ok = false
	}
	return true
}

func (s *shaper) tag(b byte) { s.key = append(s.key, b) }

func (s *shaper) flag(b bool) {
	if b {
		s.tag(1)
	} else {
		s.tag(0)
	}
}

func (s *shaper) num(n int) { s.key = binary.AppendVarint(s.key, int64(n)) }

func (s *shaper) name(x string) {
	s.num(len(x))
	s.key = append(s.key, x...)
}

// textKey lexes src and returns its token key and literals.
func textKey(t testing.TB, src string) (string, []storage.Value) {
	t.Helper()
	var lx sqlmini.Lexer
	if err := lx.Lex(src); err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	key, keyed := lx.Key()
	if !keyed {
		t.Fatalf("%q: a literal does not convert", src)
	}
	return string(key), append([]storage.Value(nil), lx.Params()...)
}

// keyTokens decodes a token key into one string per token: a word,
// operator or punctuation token's canonical text, and "" for a literal.
func keyTokens(key []byte) []string {
	var toks []string
	for len(key) > 0 {
		n := 1
		for n < len(key) && key[n] >= 0x20 {
			n++
		}
		toks = append(toks, string(key[1:n]))
		key = key[n:]
	}
	return toks
}

// renderTokens writes tokens as SQL text, one space apart, each literal
// the next of vals written as a token of its kind: an int as digits, a
// float with a point, a string quoted, a boolean as true or false. Numbers must not be negative: a
// sign is a token of its own.
func renderTokens(toks []string, vals []storage.Value) string {
	var sb strings.Builder
	for _, tok := range toks {
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		if tok != "" {
			sb.WriteString(tok)
			continue
		}
		v := vals[0]
		vals = vals[1:]
		switch v.Kind {
		case storage.KindInt:
			sb.WriteString(strconv.FormatInt(v.I, 10))
		case storage.KindFloat:
			f := strconv.FormatFloat(v.F, 'f', -1, 64)
			if !strings.Contains(f, ".") {
				f += ".0"
			}
			sb.WriteString(f)
		default:
			sb.WriteString(v.String())
		}
	}
	return sb.String()
}

// TestShapeSharedAcrossLiterals: texts that differ only in the values
// of number, string and boolean literals of one kind, in spacing,
// comments or letter case share a token key, and their literals are the
// lexer's params; any other difference, a literal's kind included, does
// not.
func TestShapeSharedAcrossLiterals(t *testing.T) {
	same := [][2]string{
		{"update account set balance = balance + 5.0 where id = 17", "UPDATE account SET balance = balance + 10.0\n  WHERE id = 42 -- moved"},
		{"select a from t where s = 'it''s' and b > -3", "select a from t where s = '' and b > -9007199254740993"},
		{"select a from t where a in (1, 2) order by a", "select a from t where a in (7, 8) order by a"},
		{"insert into t values (1, 2, 'x', 1.5, true)", "insert into t values (3, 4, 'y', 2.5e3, FALSE)"},
		{"select a from t where bl = true", "select a from t where bl = false"},
		{"insert into u (v, a) values (1, 2), (null, 3)", "insert into u (v, a) values (7, 8), (null, 9)"},
		{"delete from u where v >= 0 and v < 1000000000", "delete from u where v >= 5 and v < 9"},
		{"delete from u where a = 1; delete from t where a = 1", "delete from u where a = 2;delete from t where a = 3"},
	}
	for _, p := range same {
		k0, _ := textKey(t, p[0])
		k1, _ := textKey(t, p[1])
		if k0 != k1 {
			t.Errorf("%q and %q: different keys", p[0], p[1])
		}
	}
	differ := [][2]string{
		{"select a from t where a in (1, 2)", "select a from t where a in (1, 2, 3)"},
		{"select a from t where a = 1", "select a from t where a = 1.0"},
		{"select a from t where a = 1", "select a from t where a = null"},
		{"select a from t where a = 1", "select a from t where a = '1'"},
		{"select a from t where a = 1", "select a from t where a = -1"},
		{"select a from t where a = 1", "select a from t where a <> 1"},
		{"select a from t where a = 1", "select b from t where a = 1"},
		{"select a from t where a = 1", "select a from u where a = 1"},
		{"select a from t x where a = 1", "select a from t where a = 1"},
		{"select a from t where a = 1", "select distinct a from t where a = 1"},
		{"select a from t order by a", "select a from t order by a desc"},
		{"select a from t where a is null", "select a from t where a is not null"},
		{"select a from t where a in (1)", "select a from t where a not in (1)"},
		{"select a from t where bl = true", "select a from t where bl = 1"},
		{"select a from t where a = null", "select a from t where a = false"},
		{"select a from t where a < = 1", "select a from t where a <= 1"},
		{"insert into u values (1, 2)", "insert into u values (1, 2), (3, 4)"},
		{"insert into u values (1, 2)", "insert into u values (1, 2 + 0)"},
		{"insert into u values (1, 2)", "insert into u (a, v) values (1, 2)"},
		{"update u set v = 1", "update u set a = 1"},
		{"delete from u", "delete from u where v = 1"},
		{"select count(*) from t", "select count(a) from t"},
		{"select sum(a) from t", "select max(a) from t"},
		{"delete from u", "delete from u; delete from u"},
	}
	for _, p := range differ {
		k0, _ := textKey(t, p[0])
		k1, _ := textKey(t, p[1])
		if k0 == k1 {
			t.Errorf("%q and %q: one key", p[0], p[1])
		}
	}
	// The lexer lifts number, string and boolean literals, in text
	// order, with the values the parser gives them; a null stays in the
	// key.
	_, lits := textKey(t, "insert into t values (7, -2, 'it''s', 0.25, null), (1e3, 8, '', 9, False)")
	want := []storage.Value{storage.IntV(7), storage.IntV(2), storage.StringV("it's"), storage.FloatV(0.25),
		storage.FloatV(1000), storage.IntV(8), storage.StringV(""), storage.IntV(9), storage.BoolV(false)}
	if !reflect.DeepEqual(lits, want) {
		t.Errorf("literals = %v, want %v", lits, want)
	}
	// A LIMIT count is no literal of the tree, so it stays in the key
	// and is not lifted (TestUserCacheLimit).
	k0, l0 := textKey(t, "select a from t where a > 0 order by a limit 1")
	k1, _ := textKey(t, "select a from t where a > 0 order by a limit 2")
	if k0 == k1 || !reflect.DeepEqual(l0, []storage.Value{storage.IntV(0)}) {
		t.Errorf("LIMIT 1 and LIMIT 2: one key, or literals %v, want [0]", l0)
	}
}

// keyTexts are statements that between them hold every kind of token,
// clause and expression the parser knows.
var keyTexts = []string{
	"select distinct a, count(*) from t x where x.a in (1, 2) and not exists (select 1 from u where u.a = x.a) group by a having sum(b) > 2 order by a desc limit 4",
	"select (select max(v) from u where u.a = t.a), -b from t as y where a in (select a from u) and s is not null or bl = true",
	"insert into u (a, v) select a, b from t where b % 2 = 0 and f <> 1.5",
	"insert into u (a, v) values (1, 2 + 3), (4, -5), (null, 6 * 7)",
	"update t set b = b * 2, s = 'z' where f <= 1.5 or bl and a >= 3; delete from u where v / a > 10",
	"select n.b - o.b from new-updated n, old_updated o where n.a = o.a and false",
	"rollback",
}

// TestShapeKeyCoversEveryField holds the text key to covering every
// token but a literal's value: replacing or dropping any word,
// operator or punctuation token of keyTexts changes the key.
func TestShapeKeyCoversEveryField(t *testing.T) {
	others := map[string]string{"(": ")", ")": "(", ",": ".", ".": ",", "*": "/", "/": "*", "+": "-", "-": "+",
		"%": "*", ";": ",", "=": "<>", "<>": "=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}
	for _, src := range keyTexts {
		key, vals := textKey(t, src)
		toks := keyTokens([]byte(key))
		// The fuzz oracle's texts of a key, and src's own tokens
		// rendered, have the key.
		for _, text := range append(sameKeyTexts([]byte(key), vals), renderTokens(toks, vals)) {
			if k, _ := textKey(t, text); k != key {
				t.Fatalf("%q: %q has another key", src, text)
			}
		}
		for i, tok := range toks {
			if tok == "" {
				continue
			}
			changed := append([]string(nil), toks...)
			if o, ok := others[tok]; ok {
				changed[i] = o
			} else if tok[0] >= '0' && tok[0] <= '9' {
				changed[i] = tok + "1" // a LIMIT count
			} else {
				changed[i] = tok + "z"
			}
			dropped := append(append([]string(nil), toks[:i]...), toks[i+1:]...)
			for what, c := range map[string][]string{"replacing": changed, "dropping": dropped} {
				if k, _ := textKey(t, renderTokens(c, vals)); k == key {
					t.Errorf("%q: %s token %d (%q) leaves the key as it was", src, what, i, tok)
				}
			}
		}
	}
}

// TestReferenceShapeCoversEveryField holds the reference to the same
// standard: it changes each field of a parsed statement that is not a
// literal's value — every name, operator, flag and count, reached by
// reflection so that a field added to the AST is covered too — and
// requires the reference key to change with it.
func TestReferenceShapeCoversEveryField(t *testing.T) {
	for _, src := range keyTexts {
		sts, err := sqlmini.ParseStatements(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range sts {
			var sh shaper
			sh.shape(st)
			want := string(sh.key)
			n := 0
			perturbFields(reflect.ValueOf(st), func(path string) {
				n++
				if !sh.shape(st) {
					t.Fatalf("%q: %s changed: a node the reference does not know", src, path)
				}
				if string(sh.key) == want {
					t.Errorf("%q: changing %s leaves the reference key as it was", src, path)
				}
			})
			if _, ok := st.(*sqlmini.Rollback); n == 0 && !ok {
				t.Fatalf("%q: no field perturbed", src)
			}
		}
	}
}

// perturbFields changes, one at a time, every scalar field and every
// slice length reachable from v, calls check, and restores it. A
// literal's value and the fields resolution fills in are skipped: the
// first is what a shape abstracts, the second is still zero in a parsed
// statement.
func perturbFields(v reflect.Value, check func(path string)) {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if !v.IsNil() {
			perturbFields(v.Elem(), check)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			perturbFields(v.Index(i), check)
		}
		if v.Len() > 0 && v.CanSet() {
			old := v.Slice(0, v.Len())
			v.Set(v.Slice(0, v.Len()-1))
			check(fmt.Sprintf("the length of a %s", v.Type()))
			v.Set(old)
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(sqlmini.Literal{}) {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			switch name {
			case "RTable", "RSource", "RIndex", "Trans":
				continue
			}
			f := v.Field(i)
			path := v.Type().Name() + "." + name
			switch f.Kind() {
			case reflect.String:
				old := f.String()
				f.SetString(old + "z")
				check(path)
				f.SetString(old)
			case reflect.Int:
				old := f.Int()
				f.SetInt(old + 1)
				check(path)
				f.SetInt(old)
			case reflect.Bool:
				f.SetBool(!f.Bool())
				check(path)
				f.SetBool(!f.Bool())
			default:
				perturbFields(f, check)
			}
		}
	}
}

// referenceShape parses src and returns the reference keys of its
// statements, one after another, the values of the literals the text
// key lifts, and those of the ones it leaves in the key (nulls).
func referenceShape(src string) (key []byte, lifted, kept []storage.Value, err error) {
	sts, err := sqlmini.ParseStatements(src)
	if err != nil {
		return nil, nil, nil, err
	}
	var sh shaper
	for _, st := range sts {
		sh.shape(st)
		key = append(append(key, sh.key...), ';')
		for _, l := range sh.lits {
			if l.Val.Kind == storage.KindNull {
				kept = append(kept, l.Val)
			} else {
				lifted = append(lifted, l.Val)
			}
		}
	}
	return key, lifted, kept, nil
}

// sameKeyTexts returns texts that lex to src's token key with other
// literal values: non-negative numbers, past 2⁵³ and zero among them,
// strings with quotes, and flipped booleans. Each is src's tokens rendered one space
// apart, so spacing, comments and case differ from src's too.
func sameKeyTexts(key []byte, vals []storage.Value) []string {
	toks := keyTokens(key)
	var out []string
	for round := int64(1); round <= 2; round++ {
		next := make([]storage.Value, len(vals))
		for i, v := range vals {
			k := int64(i) + round
			switch v.Kind {
			case storage.KindInt:
				v.I = []int64{0, v.I/2 + 1<<53 + 1, 7, v.I + k}[k%4]
				if v.I < 0 {
					v.I = 0
				}
			case storage.KindFloat:
				v.F = []float64{0.5, v.F * 2, 0, float64(k) + 0.25}[k%4]
			case storage.KindString:
				v.S = []string{v.S + "'", "", "x", "it's"}[k%4]
			case storage.KindBool:
				v.B = !v.B
			}
			next[i] = v
		}
		out = append(out, renderTokens(toks, next))
	}
	return out
}
