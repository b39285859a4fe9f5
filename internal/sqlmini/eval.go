package sqlmini

import (
	"errors"
	"fmt"
	"sort"

	"activerules/internal/storage"
)

// TransitionData supplies the materialized transition tables of the rule
// being evaluated (Section 2). Each row has the full column layout of the
// rule's triggering table.
type TransitionData struct {
	Inserted   [][]storage.Value
	Deleted    [][]storage.Value
	NewUpdated [][]storage.Value
	OldUpdated [][]storage.Value
}

// Mutator receives the data modifications performed by statement
// execution, one call per statement that changes any row: the rows an
// INSERT adds, the identities a DELETE removes, or an UPDATE's
// identities with its new values, row-major (tuple k's column cols[i]
// gets vals[k*len(cols)+i]). The rule engine implements it to record the
// changes, which its net-effect transitions are computed from. Rows are
// applied in order, and a failing one fails the call with the rows
// before it applied (Insert also reports how many it added). Table and
// column names are the schema's canonical ones (resolution folds them);
// rows, ids and vals are the caller's and may be reused once the call
// returns, so an implementation that stores them copies them, as the
// database does.
type Mutator interface {
	Insert(table string, rows [][]storage.Value) (int, error)
	Delete(table string, ids []storage.TupleID) error
	Update(table string, cols []string, ids []storage.TupleID, vals []storage.Value) error
}

// dbMutator applies mutations directly to a DB, for standalone use.
type dbMutator struct{ db *storage.DB }

func (m dbMutator) Insert(table string, rows [][]storage.Value) (int, error) {
	return m.db.InsertRows(table, rows)
}

func (m dbMutator) Delete(table string, ids []storage.TupleID) error {
	return m.db.DeleteRows(table, ids)
}

func (m dbMutator) Update(table string, cols []string, ids []storage.TupleID, vals []storage.Value) error {
	return m.db.UpdateRows(table, cols, ids, vals)
}

// DirectMutator returns a Mutator that applies changes straight to db,
// with no delta recording. Useful for scripts and tests.
func DirectMutator(db *storage.DB) Mutator { return dbMutator{db} }

// Evaluator executes resolved statements and expressions against a
// database. Trans may be nil when no rule is in scope; Mut may be nil for
// read-only evaluation (mutating statements then fail).
type Evaluator struct {
	DB    *storage.DB
	Trans *TransitionData
	Mut   Mutator
}

// StmtResult is the outcome of executing one statement.
type StmtResult struct {
	Rows     [][]storage.Value // SELECT only
	Affected int               // rows inserted/deleted/updated
	Rolled   bool              // ROLLBACK executed
}

// ErrDivisionByZero is returned when integer or float division divides by
// zero (SQL would raise an error too).
var ErrDivisionByZero = errors.New("sql: division by zero")

// frame is one runtime binding of a FROM item alias to a concrete row.
type frame struct {
	alias string
	row   []storage.Value
	prev  *frame
}

func (f *frame) lookup(alias string) *frame {
	for cur := f; cur != nil; cur = cur.prev {
		if cur.alias == alias {
			return cur
		}
	}
	return nil
}

// Exec executes one resolved statement.
func (ev *Evaluator) Exec(st Statement) (StmtResult, error) {
	return ev.exec(st, nil)
}

func (ev *Evaluator) exec(st Statement, env *frame) (StmtResult, error) {
	switch s := st.(type) {
	case *Select:
		rows, err := ev.evalSelect(s, env)
		return StmtResult{Rows: rows}, err
	case *Insert:
		return ev.execInsert(s, env)
	case *Delete:
		return ev.execDelete(s, env)
	case *Update:
		return ev.execUpdate(s, env)
	case *Rollback:
		return StmtResult{Rolled: true}, nil
	default:
		return StmtResult{}, fmt.Errorf("sql: cannot execute %T", st)
	}
}

// EvalPredicate evaluates a resolved condition expression; SQL semantics:
// only a definite true satisfies the predicate (false and unknown do not).
func (ev *Evaluator) EvalPredicate(e Expr) (bool, error) {
	v, err := ev.evalExpr(e, nil)
	if err != nil {
		return false, err
	}
	return v.Kind == storage.KindBool && v.B, nil
}

// sourceRows materializes the rows of one FROM item.
func (ev *Evaluator) sourceRows(tr *TableRef) ([][]storage.Value, error) {
	if tr.Trans != TransNone {
		return ev.Trans.Rows(tr.Trans), nil
	}
	t := ev.DB.Table(tr.RTable)
	if t == nil {
		return nil, fmt.Errorf("sql: missing table %q", tr.RTable)
	}
	rows := make([][]storage.Value, 0, t.Len())
	t.Scan(func(tu *storage.Tuple) bool {
		row := make([]storage.Value, len(tu.Vals))
		copy(row, tu.Vals)
		rows = append(rows, row)
		return true
	})
	return rows, nil
}

// evalSelect produces the result rows of a query block.
func (ev *Evaluator) evalSelect(s *Select, env *frame) ([][]storage.Value, error) {
	// Materialize each source once (nested-loop join).
	sources := make([][][]storage.Value, len(s.From))
	for i, tr := range s.From {
		rows, err := ev.sourceRows(tr)
		if err != nil {
			return nil, err
		}
		sources[i] = rows
	}
	// One frame per FROM item, rebound to each of its rows in turn; a
	// match keeps a copy of the chain, so only matched rows allocate.
	var matches []*frame
	scan := make([]frame, len(s.From))
	var walk func(i int, env *frame) error
	walk = func(i int, cur *frame) error {
		if i == len(s.From) {
			if s.Where != nil {
				v, err := ev.evalExpr(s.Where, cur)
				if err != nil {
					return err
				}
				ok, err := PredTruth(v)
				if err != nil {
					return err
				}
				if !ok {
					return nil
				}
			}
			m := append([]frame(nil), scan...)
			for j := 1; j < len(m); j++ {
				m[j].prev = &m[j-1]
			}
			matches = append(matches, &m[len(m)-1])
			return nil
		}
		f := &scan[i]
		f.alias, f.prev = s.From[i].EffectiveAlias(), cur
		for _, row := range sources[i] {
			f.row = row
			if err := walk(i+1, f); err != nil {
				return err
			}
		}
		return nil
	}
	// A query with no FROM evaluates its items once against env.
	if len(s.From) == 0 {
		matches = []*frame{env}
	} else if err := walk(0, env); err != nil {
		return nil, err
	}

	if len(s.GroupBy) > 0 {
		return ev.evalGroupedSelect(s, matches)
	}

	if HasAggregateItems(s) {
		out := make([]storage.Value, len(s.Items))
		for i, it := range s.Items {
			agg := it.Expr.(*Aggregate)
			v, err := ev.evalAggregate(agg, matches)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return [][]storage.Value{out}, nil
	}

	if len(s.OrderBy) > 0 {
		if err := ev.sortMatches(s, matches); err != nil {
			return nil, err
		}
	}

	results := make([][]storage.Value, 0, len(matches))
	for _, m := range matches {
		if len(s.Items) == 1 && s.Items[0].Expr == nil {
			// '*': concatenate source rows in FROM order.
			var row []storage.Value
			for _, tr := range s.From {
				f := m.lookup(tr.EffectiveAlias())
				row = append(row, f.row...)
			}
			results = append(results, row)
			continue
		}
		row := make([]storage.Value, len(s.Items))
		for i, it := range s.Items {
			v, err := ev.evalExpr(it.Expr, m)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		results = append(results, row)
	}
	if s.Distinct {
		results = DedupRows(results)
	}
	// LIMIT applies after projection and DISTINCT, keeping the (sorted)
	// prefix.
	if s.Limit >= 0 && len(results) > s.Limit {
		results = results[:s.Limit]
	}
	return results, nil
}

// sortMatches stably sorts the match frames by the ORDER BY keys: nulls
// sort last (ascending) / first (descending); incomparable non-null
// kinds are an error.
func (ev *Evaluator) sortMatches(s *Select, matches []*frame) error {
	keys := make([][]storage.Value, len(matches))
	for i, m := range matches {
		keys[i] = make([]storage.Value, len(s.OrderBy))
		for k, o := range s.OrderBy {
			v, err := ev.evalExpr(o.Expr, m)
			if err != nil {
				return err
			}
			keys[i][k] = v
		}
	}
	var sortErr error
	desc := orderDirections(s.OrderBy)
	// Indirect stable sort over indices, then permute.
	idx := make([]int, len(matches))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return OrderLess(keys[idx[a]], keys[idx[b]], desc, &sortErr)
	})
	if sortErr != nil {
		return sortErr
	}
	sorted := make([]*frame, len(matches))
	for i, j := range idx {
		sorted[i] = matches[j]
	}
	copy(matches, sorted)
	return nil
}

func (ev *Evaluator) evalAggregate(agg *Aggregate, matches []*frame) (storage.Value, error) {
	if agg.Func == "count" && agg.Arg == nil {
		return storage.IntV(int64(len(matches))), nil
	}
	var vals []storage.Value
	for _, m := range matches {
		v, err := ev.evalExpr(agg.Arg, m)
		if err != nil {
			return storage.Value{}, err
		}
		if !v.IsNull() {
			vals = append(vals, v)
		}
	}
	return FoldAggregate(agg.Func, vals)
}

// orderDirections extracts the per-key descending flags.
func orderDirections(order []OrderItem) []bool {
	desc := make([]bool, len(order))
	for i, o := range order {
		desc[i] = o.Desc
	}
	return desc
}

func (ev *Evaluator) requireMut() error {
	if ev.Mut == nil {
		return fmt.Errorf("sql: mutating statement in read-only context")
	}
	return nil
}

func (ev *Evaluator) execInsert(s *Insert, env *frame) (StmtResult, error) {
	if err := ev.requireMut(); err != nil {
		return StmtResult{}, err
	}
	def := ev.DB.Schema().Table(s.Table)
	var srcRows [][]storage.Value
	if s.Query != nil {
		rows, err := ev.evalSelect(s.Query, env)
		if err != nil {
			return StmtResult{}, err
		}
		srcRows = rows
	} else {
		for _, row := range s.Rows {
			vals := make([]storage.Value, len(row))
			for i, e := range row {
				v, err := ev.evalExpr(e, env)
				if err != nil {
					return StmtResult{}, err
				}
				vals[i] = v
			}
			srcRows = append(srcRows, vals)
		}
	}
	if len(s.Columns) > 0 {
		full := make([]storage.Value, len(def.Columns)*len(srcRows)) // all storage.Null
		for r, src := range srcRows {
			row := full[r*len(def.Columns) : (r+1)*len(def.Columns)]
			for i, c := range s.Columns {
				row[def.ColumnIndex(c)] = src[i]
			}
			srcRows[r] = row
		}
	}
	if len(srcRows) == 0 {
		return StmtResult{}, nil
	}
	n, err := ev.Mut.Insert(s.Table, srcRows)
	if err != nil {
		return StmtResult{}, err
	}
	return StmtResult{Affected: n}, nil
}

func (ev *Evaluator) execDelete(s *Delete, env *frame) (StmtResult, error) {
	if err := ev.requireMut(); err != nil {
		return StmtResult{}, err
	}
	t := ev.DB.Table(s.Table)
	var ids []storage.TupleID
	var scanErr error
	f := &frame{alias: s.Table, prev: env} // one per scan, rebound per row
	t.Scan(func(tu *storage.Tuple) bool {
		if s.Where != nil {
			f.row = tu.Vals
			v, err := ev.evalExpr(s.Where, f)
			if err != nil {
				scanErr = err
				return false
			}
			ok, err := PredTruth(v)
			if err != nil {
				scanErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		ids = append(ids, tu.ID)
		return true
	})
	if scanErr != nil {
		return StmtResult{}, scanErr
	}
	if len(ids) > 0 {
		if err := ev.Mut.Delete(s.Table, ids); err != nil {
			return StmtResult{}, err
		}
	}
	return StmtResult{Affected: len(ids)}, nil
}

func (ev *Evaluator) execUpdate(s *Update, env *frame) (StmtResult, error) {
	if err := ev.requireMut(); err != nil {
		return StmtResult{}, err
	}
	t := ev.DB.Table(s.Table)
	var ids []storage.TupleID
	var vals []storage.Value // one per set clause per match, row-major
	var scanErr error
	// SQL semantics: all right-hand sides are evaluated against the
	// pre-update state; apply only afterwards.
	f := &frame{alias: s.Table, prev: env} // one per scan, rebound per row
	t.Scan(func(tu *storage.Tuple) bool {
		f.row = tu.Vals
		if s.Where != nil {
			v, err := ev.evalExpr(s.Where, f)
			if err != nil {
				scanErr = err
				return false
			}
			ok, err := PredTruth(v)
			if err != nil {
				scanErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		for _, sc := range s.Sets {
			v, err := ev.evalExpr(sc.Expr, f)
			if err != nil {
				scanErr = err
				return false
			}
			vals = append(vals, v)
		}
		ids = append(ids, tu.ID)
		return true
	})
	if scanErr != nil {
		return StmtResult{}, scanErr
	}
	if len(ids) > 0 {
		cols := make([]string, len(s.Sets))
		for i, sc := range s.Sets {
			cols[i] = sc.Column
		}
		if err := ev.Mut.Update(s.Table, cols, ids, vals); err != nil {
			return StmtResult{}, err
		}
	}
	return StmtResult{Affected: len(ids)}, nil
}

// evalExpr evaluates an expression with three-valued logic; unknown is
// represented as the null value.
func (ev *Evaluator) evalExpr(e Expr, env *frame) (storage.Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *ColRef:
		f := env.lookup(x.RSource)
		if f == nil {
			return storage.Value{}, fmt.Errorf("sql: unbound column %s (source %q)", x, x.RSource)
		}
		if x.RIndex >= len(f.row) {
			return storage.Value{}, fmt.Errorf("sql: column index %d out of range for %s", x.RIndex, x)
		}
		return f.row[x.RIndex], nil
	case *Unary:
		v, err := ev.evalExpr(x.X, env)
		if err != nil {
			return storage.Value{}, err
		}
		return ApplyUnary(x.Op, v)
	case *Binary:
		return ev.evalBinary(x, env)
	case *IsNull:
		v, err := ev.evalExpr(x.X, env)
		if err != nil {
			return storage.Value{}, err
		}
		return storage.BoolV(v.IsNull() != x.Negate), nil
	case *InList:
		v, err := ev.evalExpr(x.X, env)
		if err != nil {
			return storage.Value{}, err
		}
		vals := make([]storage.Value, len(x.Vals))
		for i, ve := range x.Vals {
			vv, err := ev.evalExpr(ve, env)
			if err != nil {
				return storage.Value{}, err
			}
			vals[i] = vv
		}
		return InResult(v, vals, x.Negate), nil
	case *InSelect:
		v, err := ev.evalExpr(x.X, env)
		if err != nil {
			return storage.Value{}, err
		}
		rows, err := ev.evalSelect(x.Sub, env)
		if err != nil {
			return storage.Value{}, err
		}
		vals := make([]storage.Value, len(rows))
		for i, r := range rows {
			vals[i] = r[0]
		}
		return InResult(v, vals, x.Negate), nil
	case *Exists:
		rows, err := ev.evalSelect(x.Sub, env)
		if err != nil {
			return storage.Value{}, err
		}
		return storage.BoolV((len(rows) > 0) != x.Negate), nil
	case *ScalarSubquery:
		rows, err := ev.evalSelect(x.Sub, env)
		if err != nil {
			return storage.Value{}, err
		}
		return ScalarResult(rows)
	case *Aggregate:
		return storage.Value{}, fmt.Errorf("sql: aggregate %s outside select list", x.Func)
	default:
		return storage.Value{}, fmt.Errorf("sql: cannot evaluate %T", e)
	}
}

func (ev *Evaluator) evalBinary(x *Binary, env *frame) (storage.Value, error) {
	l, err := ev.evalExpr(x.L, env)
	if err != nil {
		return storage.Value{}, err
	}
	r, err := ev.evalExpr(x.R, env)
	if err != nil {
		return storage.Value{}, err
	}
	return ApplyBinary(x.Op, l, r)
}

// evalGroupedSelect implements GROUP BY / HAVING: matches are
// partitioned by the canonical encodings of the grouping columns, each
// group is filtered by HAVING and projected (aggregates over the group's
// members, grouping columns from a representative member), and the
// resulting group rows go through ORDER BY, DISTINCT, and LIMIT.
func (ev *Evaluator) evalGroupedSelect(s *Select, matches []*frame) ([][]storage.Value, error) {
	type group struct {
		rep     *frame
		members []*frame
	}
	var order []string
	groups := map[string]*group{}
	for _, m := range matches {
		var key []byte
		for _, g := range s.GroupBy {
			v, err := ev.evalExpr(g, m)
			if err != nil {
				return nil, err
			}
			key = v.AppendCanonical(key)
			key = append(key, ',')
		}
		k := string(key)
		gr, ok := groups[k]
		if !ok {
			gr = &group{rep: m}
			groups[k] = gr
			order = append(order, k)
		}
		gr.members = append(gr.members, m)
	}

	type projected struct {
		row  []storage.Value
		keys []storage.Value // ORDER BY keys
	}
	var rows []projected
	for _, k := range order {
		gr := groups[k]
		if s.Having != nil {
			hv, err := ev.evalGroupExpr(s.Having, gr.rep, gr.members)
			if err != nil {
				return nil, err
			}
			ok, err := PredTruth(hv)
			if err != nil {
				return nil, fmt.Errorf("sql: HAVING: %w", err)
			}
			if !ok {
				continue
			}
		}
		row := make([]storage.Value, len(s.Items))
		for i, it := range s.Items {
			v, err := ev.evalGroupExpr(it.Expr, gr.rep, gr.members)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		p := projected{row: row}
		for _, o := range s.OrderBy {
			v, err := ev.evalGroupExpr(o.Expr, gr.rep, gr.members)
			if err != nil {
				return nil, err
			}
			p.keys = append(p.keys, v)
		}
		rows = append(rows, p)
	}

	if len(s.OrderBy) > 0 {
		var sortErr error
		desc := orderDirections(s.OrderBy)
		sort.SliceStable(rows, func(a, b int) bool {
			return OrderLess(rows[a].keys, rows[b].keys, desc, &sortErr)
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}

	out := make([][]storage.Value, 0, len(rows))
	for _, p := range rows {
		out = append(out, p.row)
	}
	if s.Distinct {
		out = DedupRows(out)
	}
	if s.Limit >= 0 && len(out) > s.Limit {
		out = out[:s.Limit]
	}
	return out, nil
}

// evalGroupExpr evaluates an expression in group context: aggregates are
// computed over the group's members, everything else over the
// representative row.
func (ev *Evaluator) evalGroupExpr(e Expr, rep *frame, members []*frame) (storage.Value, error) {
	switch x := e.(type) {
	case *Aggregate:
		return ev.evalAggregate(x, members)
	case *Unary:
		v, err := ev.evalGroupExpr(x.X, rep, members)
		if err != nil {
			return storage.Value{}, err
		}
		return ApplyUnary(x.Op, v)
	case *Binary:
		l, err := ev.evalGroupExpr(x.L, rep, members)
		if err != nil {
			return storage.Value{}, err
		}
		r, err := ev.evalGroupExpr(x.R, rep, members)
		if err != nil {
			return storage.Value{}, err
		}
		return ApplyBinary(x.Op, l, r)
	case *IsNull:
		v, err := ev.evalGroupExpr(x.X, rep, members)
		if err != nil {
			return storage.Value{}, err
		}
		return storage.BoolV(v.IsNull() != x.Negate), nil
	case *InList:
		v, err := ev.evalGroupExpr(x.X, rep, members)
		if err != nil {
			return storage.Value{}, err
		}
		vals := make([]storage.Value, len(x.Vals))
		for i, ve := range x.Vals {
			vv, err := ev.evalGroupExpr(ve, rep, members)
			if err != nil {
				return storage.Value{}, err
			}
			vals[i] = vv
		}
		return InResult(v, vals, x.Negate), nil
	default:
		return ev.evalExpr(e, rep)
	}
}
