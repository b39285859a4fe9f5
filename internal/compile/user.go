package compile

import (
	"encoding/binary"
	"slices"

	"activerules/internal/schema"
	"activerules/internal/sqlmini"
	"activerules/internal/storage"
)

// maxShapes bounds a UserCache. A cache that reaches it starts over
// empty, so its memory is bounded whatever the traffic.
const maxShapes = 256

// UserCache runs user statements (the SQL of a request, outside any
// rule) compiled, once per statement shape. A statement's shape is the
// statement with each literal replaced by a placeholder tagged with its
// value kind; everything else — names, operators, LIMIT counts, IN-list
// lengths — is part of it. The literals themselves are lifted into
// Env.Params, so statements that differ only in literal values share
// one compiled closure. DESIGN.md §11.1 "User SQL compiles by shape"
// argues why a shape determines both resolution and the closure.
//
// The cache pays off only on traffic that repeats shapes. A miss walks
// the shape, resolves, compiles and runs; on a table of a few rows that
// costs more than resolving and interpreting the statement, and only a
// scan long enough repays the compile (BenchmarkUserStatement; DESIGN.md
// §11.1 gives the figures).
//
// The cache belongs to one engine and, like it, is single-threaded. It
// needs no invalidation: the schema it resolves against is fixed for
// its lifetime.
type UserCache struct {
	sch    *schema.Schema
	shapes map[string]*userShape
	sh     shaper
	env    Env
}

// userShape is one cached shape's closure.
type userShape struct {
	fn     stmtFn
	nSlots int
}

// NewUserCache returns an empty cache over the schema.
func NewUserCache(sch *schema.Schema) *UserCache {
	return &UserCache{sch: sch, shapes: make(map[string]*userShape)}
}

// Exec executes one parsed, not yet resolved, user statement against db
// through mut. A statement whose shape is cached skips resolution: a
// shape resolves or fails as a whole, and only shapes that resolved
// are cached. Errors are the interpreter's, message for message.
func (uc *UserCache) Exec(st sqlmini.Statement, db *storage.DB, mut sqlmini.Mutator) (sqlmini.StmtResult, error) {
	sh := &uc.sh
	var u *userShape
	cacheable := sh.shape(st)
	if cacheable {
		u = uc.shapes[string(sh.key)]
	}
	if u == nil {
		if err := sqlmini.ResolveStatement(st, &sqlmini.ResolveContext{Schema: uc.sch}); err != nil {
			return sqlmini.StmtResult{}, err
		}
		c := &compiler{sch: uc.sch, lits: sh.lits}
		fn, err := c.compileStatement(st)
		if err != nil {
			// Resolution leaves nothing the compiler declines, which
			// the differential tests and FuzzCompileEval hold; a
			// statement it ever did would fail with the compiler's
			// error rather than run some other way.
			return sqlmini.StmtResult{}, err
		}
		u = &userShape{fn: fn, nSlots: c.nSlots}
		if cacheable {
			if len(uc.shapes) >= maxShapes {
				clear(uc.shapes)
			}
			uc.shapes[string(sh.key)] = u
		}
	}
	env := &uc.env
	env.DB, env.Trans, env.Mut = db, nil, mut
	env.Params = slices.Grow(env.Params[:0], len(sh.lits))
	for _, l := range sh.lits {
		env.Params = append(env.Params, l.Val)
	}
	env.begin(u.nSlots)
	return u.fn(env)
}

// Len returns the number of cached shapes.
func (uc *UserCache) Len() int { return len(uc.shapes) }

// shaper writes a statement's shape key and collects its literals in
// the order the key names them. The key is a preorder of sqlmini.Inspect
// with one record per node: a tag for its type, then its own names,
// operators, flags and counts, including how many children of each
// kind follow. So the key is a prefix code, and two statements share
// one exactly when they differ in nothing but the values of literals
// of the same kind.
type shaper struct {
	key  []byte
	lits []*sqlmini.Literal
	ok   bool
}

// shape writes st's key and literals, reporting false when st holds a
// node the shaper does not know, which must not be cached.
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
		if literalRows(x.Rows) {
			// VALUES rows of bare literals: one shape whatever the row
			// count and the literals' kinds, which only the insert's
			// own coercion reads (compileInsert's lifted form).
			s.tag('V')
			s.num(len(x.Rows[0]))
			for _, row := range x.Rows {
				for _, e := range row {
					s.lits = append(s.lits, e.(*sqlmini.Literal))
				}
			}
			return false
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

// literalRows reports whether VALUES rows are all bare literals, every
// row as wide as the first.
func literalRows(rows [][]sqlmini.Expr) bool {
	if len(rows) == 0 {
		return false
	}
	for _, row := range rows {
		if len(row) != len(rows[0]) {
			return false
		}
		for _, e := range row {
			if _, ok := e.(*sqlmini.Literal); !ok {
				return false
			}
		}
	}
	return true
}
