package absint

import (
	"activerules/internal/schema"
	"activerules/internal/sqlmini"
)

// EffectKind classifies a statement effect summary.
type EffectKind int

const (
	EffInsert EffectKind = iota
	EffDelete
	EffUpdate
)

func (k EffectKind) String() string {
	switch k {
	case EffInsert:
		return "insert"
	case EffDelete:
		return "delete"
	case EffUpdate:
		return "update"
	}
	return "?"
}

// StmtEffect is an abstract summary of one DML statement: which table
// it touches, an over-approximation of the values it writes, and the
// necessary constraints on the (pre-state) rows it affects.
type StmtEffect struct {
	Kind  EffectKind
	Table string

	// InsertVals (inserts only) over-approximates, per target column,
	// the values every inserted row carries. Every target column is
	// present; unlisted INSERT columns carry null.
	InsertVals Constraints

	// SetVals (updates only) over-approximates, per SET column, the
	// value written. Columns not in SET keep their old value.
	SetVals Constraints

	// Scope (updates and deletes) gives necessary constraints on the
	// old values of every affected row, from the statement's WHERE.
	Scope Constraints
}

// SetCols returns the update's SET column names in sorted order.
func (e *StmtEffect) SetCols() []string { return e.SetVals.SortedCols() }

// StatementEffects summarizes the DML statements of a rule action.
// SELECT and ROLLBACK statements have no write effect and are skipped;
// the returned slice preserves statement order. A statement over a
// table missing from the schema (impossible after resolution) yields a
// maximally conservative summary.
func StatementEffects(sch *schema.Schema, action []sqlmini.Statement) []*StmtEffect {
	var out []*StmtEffect
	for _, st := range action {
		switch s := st.(type) {
		case *sqlmini.Insert:
			out = append(out, insertEffect(sch, s))
		case *sqlmini.Delete:
			out = append(out, &StmtEffect{
				Kind:  EffDelete,
				Table: s.Table,
				Scope: RowConstraints(s.Where, s.Table),
			})
		case *sqlmini.Update:
			scope := RowConstraints(s.Where, s.Table)
			env := Env{s.Table: scope}
			sets := Constraints{}
			for _, sc := range s.Sets {
				v := EvalExpr(sc.Expr, env)
				if prev, ok := sets[sc.Column]; ok {
					// Duplicate SET of one column: last assignment wins
					// at runtime; joining stays sound either way.
					v = prev.Join(v)
				}
				sets[sc.Column] = v
			}
			out = append(out, &StmtEffect{
				Kind:    EffUpdate,
				Table:   s.Table,
				SetVals: sets,
				Scope:   scope,
			})
		}
	}
	return out
}

// insertEffect summarizes an INSERT: per-column joins over all VALUES
// rows, or the source-select item values for INSERT..SELECT.
func insertEffect(sch *schema.Schema, s *sqlmini.Insert) *StmtEffect {
	eff := &StmtEffect{Kind: EffInsert, Table: s.Table, InsertVals: Constraints{}}
	t := sch.Table(s.Table)
	if t == nil {
		return eff // no per-column facts; callers treat absent cols as Top
	}
	targetCols := t.ColumnNames()
	// The explicit column list, or all columns in declaration order.
	cols := s.Columns
	if len(cols) == 0 {
		cols = targetCols
	}

	accumulate := func(col string, v Abs) {
		if prev, ok := eff.InsertVals[col]; ok {
			eff.InsertVals[col] = prev.Join(v)
		} else {
			eff.InsertVals[col] = v
		}
	}

	switch {
	case s.Query != nil:
		rowVals := selectItemAbs(sch, s.Query, len(cols))
		for i, col := range cols {
			if i < len(rowVals) {
				accumulate(col, rowVals[i])
			} else {
				accumulate(col, Top())
			}
		}
	default:
		for _, row := range s.Rows {
			for i, col := range cols {
				if i < len(row) {
					accumulate(col, EvalExpr(row[i], nil))
				} else {
					accumulate(col, Top())
				}
			}
		}
	}
	// Columns omitted from the INSERT column list receive null.
	for _, col := range targetCols {
		if _, ok := eff.InsertVals[col]; !ok {
			eff.InsertVals[col] = NullOnly()
		}
	}
	return eff
}

// selectItemAbs abstracts the output row of a select feeding an
// INSERT..SELECT: one Abs per output position. Source rows satisfy the
// select's WHERE, so items are evaluated under the per-source scope
// constraints.
func selectItemAbs(sch *schema.Schema, q *sqlmini.Select, arity int) []Abs {
	env := Env{}
	for _, tr := range q.From {
		env[tr.EffectiveAlias()] = RowConstraints(q.Where, tr.EffectiveAlias())
	}
	var out []Abs
	star := len(q.Items) == 0
	if !star {
		for _, it := range q.Items {
			if it.Expr == nil {
				star = true
				break
			}
		}
	}
	if star {
		// `select *`: resolution guarantees exactly one source whose
		// columns map positionally to the target columns.
		if len(q.From) == 1 {
			if t := sch.Table(q.From[0].RTable); t != nil {
				alias := q.From[0].EffectiveAlias()
				for _, col := range t.ColumnNames() {
					out = append(out, env[alias].Get(col))
				}
				return out
			}
		}
		for i := 0; i < arity; i++ {
			out = append(out, Top())
		}
		return out
	}
	for _, it := range q.Items {
		out = append(out, EvalExpr(it.Expr, env))
	}
	return out
}

// ReadContext describes one place a rule reads rows of a source: the
// physical table, which transition view (TransNone for the base table),
// the columns of that source referenced anywhere in the statement, and
// the necessary constraints a row must satisfy to contribute to the
// read (from the WHERE of the select binding the source).
type ReadContext struct {
	Table string
	Trans sqlmini.TransKind
	Cols  map[string]bool
	Scope Constraints
}

// ctxFrame binds one in-scope source alias to its context during the
// walk; lookups scan innermost-first so shadowed outer aliases are
// never miscredited.
type ctxFrame struct {
	alias string
	ctx   *ReadContext
}

// RuleReadContexts collects every read context of a rule: its condition
// plus every statement of its action (including the implicit read of
// UPDATE/DELETE target rows via their WHERE clauses). A `select *`
// marks every column of the source as read.
func RuleReadContexts(sch *schema.Schema, cond sqlmini.Expr, action []sqlmini.Statement) []*ReadContext {
	w := &ctxWalker{}
	w.walk(cond, nil)
	for _, st := range action {
		w.stmt(st)
	}
	for _, ctx := range w.out {
		if !ctx.Cols["*"] {
			continue
		}
		delete(ctx.Cols, "*")
		if t := sch.Table(ctx.Table); t != nil {
			for _, col := range t.ColumnNames() {
				ctx.Cols[col] = true
			}
		}
	}
	return w.out
}

type ctxWalker struct {
	out []*ReadContext
}

// stmt walks one action statement. DELETE and UPDATE read their target
// table's rows, so the target is the one source in scope of their SET
// and WHERE expressions; SELECT and INSERT bring their sources with
// their selects.
func (w *ctxWalker) stmt(st sqlmini.Statement) {
	switch s := st.(type) {
	case *sqlmini.Select:
		w.sel(s, nil)
	case *sqlmini.Delete:
		w.walk(s.Where, []ctxFrame{w.target(s.Table, s.Where)})
	case *sqlmini.Update:
		stack := []ctxFrame{w.target(s.Table, s.Where)}
		for _, sc := range s.Sets {
			w.walk(sc.Expr, stack)
		}
		w.walk(s.Where, stack)
	default:
		w.walk(st, nil)
	}
}

// target opens the read context of a DELETE or UPDATE target, scoped
// by the statement's WHERE, and returns its frame.
func (w *ctxWalker) target(table string, where sqlmini.Expr) ctxFrame {
	ctx := &ReadContext{Table: table, Trans: sqlmini.TransNone, Cols: map[string]bool{},
		Scope: RowConstraints(where, table)}
	w.out = append(w.out, ctx)
	return ctxFrame{alias: table, ctx: ctx}
}

// sel pushes a frame per FROM source and walks the select under the
// extended stack.
func (w *ctxWalker) sel(s *sqlmini.Select, stack []ctxFrame) {
	inner := append([]ctxFrame{}, stack...)
	for _, tr := range s.From {
		ctx := &ReadContext{Table: tr.RTable, Trans: tr.Trans, Cols: map[string]bool{},
			Scope: RowConstraints(s.Where, tr.EffectiveAlias())}
		w.out = append(w.out, ctx)
		inner = append(inner, ctxFrame{alias: tr.EffectiveAlias(), ctx: ctx})
	}
	for _, it := range s.Items {
		if it.Expr == nil {
			// `select *` reads every column of every source.
			for _, tr := range s.From {
				w.star(tr, inner)
			}
		}
	}
	w.walk(s, inner)
}

func (w *ctxWalker) star(tr *sqlmini.TableRef, stack []ctxFrame) {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].alias == tr.EffectiveAlias() {
			stack[i].ctx.Cols["*"] = true
			return
		}
	}
}

// walk credits every column reference under n to the innermost frame
// of stack its source binds. A select below n opens a scope of its own:
// sel walks it, and this walk prunes there.
func (w *ctxWalker) walk(n sqlmini.Node, stack []ctxFrame) {
	sqlmini.Inspect(n, func(m sqlmini.Node) bool {
		switch x := m.(type) {
		case *sqlmini.ColRef:
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].alias == x.RSource {
					stack[i].ctx.Cols[x.Column] = true
					break
				}
			}
		case *sqlmini.Select:
			if x != n {
				w.sel(x, stack)
				return false
			}
		}
		return true
	})
}
