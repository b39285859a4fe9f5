package compile

import (
	"errors"

	"activerules/internal/schema"
	"activerules/internal/sqlmini"
	"activerules/internal/storage"
)

// The bounds of a UserCache. A cache that would pass either of the
// first two starts over empty, and a text whose key alone passes
// maxKeyBytes is not cached. The lexer's scratch grows with the text it
// lexes, at a few dozen bytes per text byte, and is dropped after any
// text longer than maxScratchText. So a cache's memory is bounded
// whatever the traffic.
const (
	maxScripts     = 256
	maxKeyBytes    = 1 << 20
	maxScratchText = 64 << 10
)

// ErrUserRollback is the error of a user script that holds a ROLLBACK,
// which only a rule action may run.
var ErrUserRollback = errors.New("engine: rollback is not permitted in user scripts; it is a rule action")

// UserCache runs the SQL of requests (user statements, outside any rule)
// compiled, once per token key. The key is the text's token stream with
// every number, string and boolean literal replaced by a tag of its kind
// (sqlmini.Lexer); the literals' values are lifted into Env.Params, so
// texts that differ only in literal values, spacing, comments or letter
// case share one compiled script. Everything else is in the key: names,
// operators, keywords (null among them), LIMIT counts, IN-list and row
// counts. DESIGN.md §11.1 "User SQL compiles by text key" argues why a
// key determines the parse, the resolution and the closures.
//
// A hit lexes the text and runs the cached closures: it neither parses
// nor resolves. A miss parses the tokens the lexer already holds, then
// resolves, compiles and runs each statement in turn, and caches the
// script once every statement has compiled and the literals the
// statements lift are exactly the lexer's, in order. They are not when a
// number does not convert, or when the lexer lifts a number the parser
// reads as no literal node; such a text is compiled afresh every time.
//
// A miss costs no more than resolving and interpreting the statement
// would: about the same over a table of a few rows, and less over a few
// hundred, where the compiled scan or equality probe repays the compile
// within the statement (BenchmarkUserStatement; DESIGN.md §11.1 gives
// the figures). A hit costs a fraction of either.
//
// The cache belongs to one engine and, like it, is single-threaded. It
// needs no invalidation: the schema it resolves against is fixed for
// its lifetime.
type UserCache struct {
	sch      *schema.Schema
	scripts  map[string][]userStmt
	keyBytes int // the length of every key held
	lx       sqlmini.Lexer
	lits     []*sqlmini.Literal
	vals     []storage.Value // a miss's Params
	env      Env
}

// userStmt is one compiled statement of a cached script.
type userStmt struct {
	fn      stmtFn
	nSlots  int
	nParams int // how many of the script's Params are this statement's
}

// NewUserCache returns an empty cache over the schema.
func NewUserCache(sch *schema.Schema) *UserCache {
	return &UserCache{sch: sch, scripts: make(map[string][]userStmt)}
}

// Exec runs the ';'-separated user statements of src against db through
// mut, in order, and returns their results. A ROLLBACK statement fails
// with ErrUserRollback when the script reaches it; other errors are the
// interpreter's, message for message. The first error stops the script:
// undoing what ran before it is the caller's.
func (uc *UserCache) Exec(src string, db *storage.DB, mut sqlmini.Mutator) ([]sqlmini.StmtResult, error) {
	if len(src) > maxScratchText {
		defer uc.dropScratch()
	}
	lx := &uc.lx
	if err := lx.Lex(src); err != nil {
		return nil, err
	}
	key, keyed := lx.Key()
	if script := uc.scripts[string(key)]; keyed && script != nil {
		return uc.run(script, lx.Params(), db, mut)
	}
	sts, err := lx.Parse()
	if err != nil {
		return nil, err
	}
	// The literals point into the parsed statements, which the cache
	// does not keep.
	defer func() { clear(uc.lits[:cap(uc.lits)]) }()
	params := lx.Params() // the lexer's literals not yet matched
	script := make([]userStmt, 0, len(sts))
	out := make([]sqlmini.StmtResult, 0, len(sts))
	for _, st := range sts {
		if _, ok := st.(*sqlmini.Rollback); ok {
			return nil, ErrUserRollback
		}
		lits := liftLiterals(uc.lits[:0], st)
		uc.lits = lits
		if err := sqlmini.ResolveStatement(st, &sqlmini.ResolveContext{Schema: uc.sch}); err != nil {
			return nil, err
		}
		c := &compiler{sch: uc.sch, lits: lits}
		fn, err := c.compileStatement(st)
		if err != nil {
			// Resolution leaves nothing the compiler declines, which
			// the differential tests and FuzzCompileEval hold; a
			// statement it ever did would fail with the compiler's
			// error rather than run some other way.
			return nil, err
		}
		script = append(script, userStmt{fn: fn, nSlots: c.nSlots, nParams: len(lits)})
		keyed = keyed && sameValues(lits, params)
		if keyed {
			params = params[len(lits):]
		}
		if keyed && len(script) == len(sts) && len(params) == 0 {
			uc.store(key, script)
		}
		uc.vals = uc.vals[:0]
		for _, l := range lits {
			uc.vals = append(uc.vals, l.Val)
		}
		res, err := uc.exec(script[len(script)-1], uc.vals, db, mut)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// dropScratch lets go of the lexer's scratch and of the literal lists
// that grew with a text.
func (uc *UserCache) dropScratch() {
	uc.lx, uc.lits, uc.vals, uc.env.Params = sqlmini.Lexer{}, nil, nil, nil
}

// run runs a cached script over the lexer's literals.
func (uc *UserCache) run(script []userStmt, params []storage.Value, db *storage.DB, mut sqlmini.Mutator) ([]sqlmini.StmtResult, error) {
	out := make([]sqlmini.StmtResult, 0, len(script))
	for _, u := range script {
		res, err := uc.exec(u, params[:u.nParams:u.nParams], db, mut)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
		params = params[u.nParams:]
	}
	return out, nil
}

func (uc *UserCache) exec(u userStmt, params []storage.Value, db *storage.DB, mut sqlmini.Mutator) (sqlmini.StmtResult, error) {
	env := &uc.env
	env.DB, env.Trans, env.Mut, env.Params = db, nil, mut, params
	env.begin(u.nSlots)
	return u.fn(env)
}

// store caches a compiled script under its key, starting over when the
// cache would pass a bound.
func (uc *UserCache) store(key []byte, script []userStmt) {
	if len(key) > maxKeyBytes {
		return
	}
	if len(uc.scripts) >= maxScripts || uc.keyBytes+len(key) > maxKeyBytes {
		clear(uc.scripts)
		uc.keyBytes = 0
	}
	uc.scripts[string(key)] = script
	uc.keyBytes += len(key)
}

// Len returns the number of cached scripts.
func (uc *UserCache) Len() int { return len(uc.scripts) }

// liftLiterals appends st's literals but its nulls to lits in
// sqlmini.Inspect order, which is text order: the literals a text key
// lifts. A null is a word of the key, so the key fixes it, and it
// compiles as a constant.
func liftLiterals(lits []*sqlmini.Literal, st sqlmini.Statement) []*sqlmini.Literal {
	sqlmini.Inspect(st, func(n sqlmini.Node) bool {
		if l, ok := n.(*sqlmini.Literal); ok && l.Val.Kind != storage.KindNull {
			lits = append(lits, l)
		}
		return true
	})
	return lits
}

// sameValues reports whether the literals' values begin vals, kind and
// value alike.
func sameValues(lits []*sqlmini.Literal, vals []storage.Value) bool {
	if len(lits) > len(vals) {
		return false
	}
	for i, l := range lits {
		if l.Val != vals[i] {
			return false
		}
	}
	return true
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
