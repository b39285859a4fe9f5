package compile

import (
	"fmt"
	"sort"
	"strings"

	"activerules/internal/sqlmini"
	"activerules/internal/storage"
)

// The compiled query machinery mirrors the interpreter's evalSelect /
// exec* structure statement-for-statement: materialize sources once,
// nested-loop join with the WHERE applied at the innermost level,
// then grouping / aggregates / ORDER BY / DISTINCT / LIMIT in the
// same order, with every value-level decision delegated to sqlmini's
// shared semantics helpers. The difference is purely in binding: a
// match is a snapshot of the block's statically assigned slots
// instead of a linked frame chain.

// matchSnap is one join match: the row bound to each FROM item of the
// block, in FROM order. A nil snapshot (the no-FROM query form) leaves
// the outer bindings untouched.
type matchSnap = [][]storage.Value

// srcFn materializes the rows of one FROM item.
type srcFn func(env *Env) ([][]storage.Value, error)

func (c *compiler) compileSource(tr *sqlmini.TableRef) srcFn {
	if tr.Trans != sqlmini.TransNone {
		kind := tr.Trans
		return func(env *Env) ([][]storage.Value, error) {
			return env.Trans.Rows(kind), nil
		}
	}
	table := tr.RTable
	return func(env *Env) ([][]storage.Value, error) {
		t := env.DB.Table(table)
		if t == nil {
			return nil, fmt.Errorf("sql: missing table %q", table)
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
}

// compiledSelect carries the pieces of one compiled query block.
type compiledSelect struct {
	srcs    []srcFn
	base    int // first slot of this block's FROM bindings
	where   condFn
	star    bool
	items   []exprFn
	orderBy []exprFn
	desc    []bool
	groupBy []exprFn
	// Grouped/aggregate forms evaluate items, HAVING, and ORDER BY
	// keys in group context.
	gItems   []groupFn
	gHaving  groupFn
	gOrder   []groupFn
	aggs     []aggFn // non-grouped aggregate query form
	distinct bool
	limit    int
}

// groupFn evaluates an expression in group context (aggregates over
// the members, everything else over the representative match).
type groupFn func(env *Env, rep matchSnap, members []matchSnap) (storage.Value, error)

// aggFn evaluates one aggregate over a set of matches.
type aggFn func(env *Env, matches []matchSnap) (storage.Value, error)

// restore rebinds a block's slots to one match.
func (cs *compiledSelect) restore(env *Env, m matchSnap) {
	for j, row := range m {
		env.Slots[cs.base+j] = row
	}
}

func (c *compiler) compileSelect(s *sqlmini.Select) (selFn, error) {
	cs := &compiledSelect{
		base:     len(c.stack),
		star:     len(s.Items) == 1 && s.Items[0].Expr == nil,
		distinct: s.Distinct,
		limit:    s.Limit,
		desc:     make([]bool, len(s.OrderBy)),
	}
	cs.srcs = make([]srcFn, len(s.From))
	for i, tr := range s.From {
		cs.srcs[i] = c.compileSource(tr)
		c.push(tr.EffectiveAlias())
	}
	defer c.pop(len(s.From))

	if s.Where != nil {
		w, err := c.compileExpr(s.Where)
		if err != nil {
			return nil, err
		}
		cs.where = w.where()
	}
	for i, o := range s.OrderBy {
		cs.desc[i] = o.Desc
	}

	switch {
	case len(s.GroupBy) > 0:
		for _, g := range s.GroupBy {
			gc, err := c.compileExpr(g)
			if err != nil {
				return nil, err
			}
			cs.groupBy = append(cs.groupBy, gc.fn)
		}
		for _, it := range s.Items {
			gf, err := c.compileGroupExpr(cs, it.Expr)
			if err != nil {
				return nil, err
			}
			cs.gItems = append(cs.gItems, gf)
		}
		if s.Having != nil {
			gf, err := c.compileGroupExpr(cs, s.Having)
			if err != nil {
				return nil, err
			}
			cs.gHaving = gf
		}
		for _, o := range s.OrderBy {
			gf, err := c.compileGroupExpr(cs, o.Expr)
			if err != nil {
				return nil, err
			}
			cs.gOrder = append(cs.gOrder, gf)
		}
		return cs.runGrouped, nil

	case sqlmini.HasAggregateItems(s):
		for _, it := range s.Items {
			agg, ok := it.Expr.(*sqlmini.Aggregate)
			if !ok {
				return nil, errUnsupported{what: "mixed aggregate select list"}
			}
			af, err := c.compileAggregate(cs, agg)
			if err != nil {
				return nil, err
			}
			cs.aggs = append(cs.aggs, af)
		}
		return cs.runAggregate, nil

	default:
		if !cs.star {
			for _, it := range s.Items {
				ic, err := c.compileExpr(it.Expr)
				if err != nil {
					return nil, err
				}
				cs.items = append(cs.items, ic.fn)
			}
		}
		for _, o := range s.OrderBy {
			oc, err := c.compileExpr(o.Expr)
			if err != nil {
				return nil, err
			}
			cs.orderBy = append(cs.orderBy, oc.fn)
		}
		return cs.runPlain, nil
	}
}

func (c *compiler) compileAggregate(cs *compiledSelect, agg *sqlmini.Aggregate) (aggFn, error) {
	if agg.Func == "count" && agg.Arg == nil {
		return func(_ *Env, matches []matchSnap) (storage.Value, error) {
			return storage.IntV(int64(len(matches))), nil
		}, nil
	}
	ac, err := c.compileExpr(agg.Arg)
	if err != nil {
		return nil, err
	}
	fn := strings.Clone(agg.Func)
	argFn := ac.fn
	return func(env *Env, matches []matchSnap) (storage.Value, error) {
		var vals []storage.Value
		for _, m := range matches {
			cs.restore(env, m)
			v, err := argFn(env)
			if err != nil {
				return storage.Value{}, err
			}
			if !v.IsNull() {
				vals = append(vals, v)
			}
		}
		return sqlmini.FoldAggregate(fn, vals)
	}, nil
}

// compileGroupExpr mirrors the interpreter's evalGroupExpr: aggregates
// go over the group's members, composite nodes recurse, and leaves are
// evaluated over the representative match.
func (c *compiler) compileGroupExpr(cs *compiledSelect, e sqlmini.Expr) (groupFn, error) {
	switch x := e.(type) {
	case *sqlmini.Aggregate:
		af, err := c.compileAggregate(cs, x)
		if err != nil {
			return nil, err
		}
		return func(env *Env, _ matchSnap, members []matchSnap) (storage.Value, error) {
			return af(env, members)
		}, nil
	case *sqlmini.Unary:
		sub, err := c.compileGroupExpr(cs, x.X)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(env *Env, rep matchSnap, members []matchSnap) (storage.Value, error) {
			v, err := sub(env, rep, members)
			if err != nil {
				return storage.Value{}, err
			}
			return sqlmini.ApplyUnary(op, v)
		}, nil
	case *sqlmini.Binary:
		lf, err := c.compileGroupExpr(cs, x.L)
		if err != nil {
			return nil, err
		}
		rf, err := c.compileGroupExpr(cs, x.R)
		if err != nil {
			return nil, err
		}
		op := x.Op
		return func(env *Env, rep matchSnap, members []matchSnap) (storage.Value, error) {
			l, err := lf(env, rep, members)
			if err != nil {
				return storage.Value{}, err
			}
			r, err := rf(env, rep, members)
			if err != nil {
				return storage.Value{}, err
			}
			return sqlmini.ApplyBinary(op, l, r)
		}, nil
	case *sqlmini.IsNull:
		sub, err := c.compileGroupExpr(cs, x.X)
		if err != nil {
			return nil, err
		}
		neg := x.Negate
		return func(env *Env, rep matchSnap, members []matchSnap) (storage.Value, error) {
			v, err := sub(env, rep, members)
			if err != nil {
				return storage.Value{}, err
			}
			return storage.BoolV(v.IsNull() != neg), nil
		}, nil
	case *sqlmini.InList:
		sub, err := c.compileGroupExpr(cs, x.X)
		if err != nil {
			return nil, err
		}
		members := make([]groupFn, len(x.Vals))
		for i, ve := range x.Vals {
			m, err := c.compileGroupExpr(cs, ve)
			if err != nil {
				return nil, err
			}
			members[i] = m
		}
		neg := x.Negate
		return func(env *Env, rep matchSnap, mem []matchSnap) (storage.Value, error) {
			v, err := sub(env, rep, mem)
			if err != nil {
				return storage.Value{}, err
			}
			vals := make([]storage.Value, len(members))
			for i, m := range members {
				vv, err := m(env, rep, mem)
				if err != nil {
					return storage.Value{}, err
				}
				vals[i] = vv
			}
			return sqlmini.InResult(v, vals, neg), nil
		}, nil
	default:
		ec, err := c.compileExpr(e)
		if err != nil {
			return nil, err
		}
		fn := ec.fn
		return func(env *Env, rep matchSnap, _ []matchSnap) (storage.Value, error) {
			cs.restore(env, rep)
			return fn(env)
		}, nil
	}
}

// collect runs the nested-loop join, returning the match snapshots.
// Sources, snapshots and the list of them go on the Env's scratch.
func (cs *compiledSelect) collect(env *Env) ([]matchSnap, error) {
	n := len(cs.srcs)
	if n == 0 {
		// A query with no FROM evaluates its items once against the
		// enclosing bindings.
		env.lists = append(env.lists, nil)
		return env.lists[len(env.lists)-1:], nil
	}
	base := len(env.lists)
	for _, src := range cs.srcs {
		rows, err := src(env)
		if err != nil {
			return nil, err
		}
		env.lists = append(env.lists, rows)
	}
	// A subquery in WHERE pushes above the matches and pops again; if it
	// grows a stack meanwhile, what was pushed before stays where it is.
	if err := cs.walk(env, env.lists[base:base+n], 0); err != nil {
		return nil, err
	}
	return env.lists[base+n:], nil
}

// walk binds FROM item i to each of its rows in turn and, with every
// item bound, pushes the bindings that satisfy WHERE as one match.
func (cs *compiledSelect) walk(env *Env, sources []matchSnap, i int) error {
	n := len(sources)
	if i == n {
		if cs.where != nil {
			if ok, err := cs.where(env); err != nil || !ok {
				return err
			}
		}
		at := len(env.rows)
		env.rows = append(env.rows, env.Slots[cs.base:cs.base+n]...)
		env.lists = append(env.lists, env.rows[at:at+n:at+n])
		return nil
	}
	for _, row := range sources[i] {
		env.Slots[cs.base+i] = row
		if err := cs.walk(env, sources, i+1); err != nil {
			return err
		}
	}
	return nil
}

// runPlain is the non-grouped, non-aggregate query form. Its result
// rows are carved from the Env's scratch.
func (cs *compiledSelect) runPlain(env *Env) ([][]storage.Value, error) {
	matches, err := cs.collect(env)
	if err != nil {
		return nil, err
	}

	if len(cs.orderBy) > 0 {
		keys := make([][]storage.Value, len(matches))
		for i, m := range matches {
			cs.restore(env, m)
			keys[i] = make([]storage.Value, len(cs.orderBy))
			for k, of := range cs.orderBy {
				v, err := of(env)
				if err != nil {
					return nil, err
				}
				keys[i][k] = v
			}
		}
		var sortErr error
		idx := make([]int, len(matches))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return sqlmini.OrderLess(keys[idx[a]], keys[idx[b]], cs.desc, &sortErr)
		})
		if sortErr != nil {
			return nil, sortErr
		}
		sorted := make([]matchSnap, len(matches))
		for i, j := range idx {
			sorted[i] = matches[j]
		}
		matches = sorted
	}

	first := len(env.rows)
	for _, m := range matches {
		at := len(env.vals)
		if cs.star {
			for j := range m {
				env.vals = append(env.vals, m[j]...)
			}
		} else {
			cs.restore(env, m)
			for _, it := range cs.items {
				v, err := it(env)
				if err != nil {
					return nil, err
				}
				env.vals = append(env.vals, v)
			}
		}
		env.rows = append(env.rows, env.vals[at:len(env.vals):len(env.vals)])
	}
	results := env.rows[first:]
	if cs.distinct {
		results = sqlmini.DedupRows(results)
	}
	if cs.limit >= 0 && len(results) > cs.limit {
		results = results[:cs.limit]
	}
	return results, nil
}

// runAggregate is the non-grouped aggregate query form: one row.
func (cs *compiledSelect) runAggregate(env *Env) ([][]storage.Value, error) {
	matches, err := cs.collect(env)
	if err != nil {
		return nil, err
	}
	out := make([]storage.Value, len(cs.aggs))
	for i, af := range cs.aggs {
		v, err := af(env, matches)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return [][]storage.Value{out}, nil
}

// runGrouped is the GROUP BY / HAVING query form.
func (cs *compiledSelect) runGrouped(env *Env) ([][]storage.Value, error) {
	matches, err := cs.collect(env)
	if err != nil {
		return nil, err
	}
	type group struct {
		rep     matchSnap
		members []matchSnap
	}
	var order []string
	groups := map[string]*group{}
	for _, m := range matches {
		cs.restore(env, m)
		var key []byte
		for _, gf := range cs.groupBy {
			v, err := gf(env)
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
		keys []storage.Value
	}
	var rows []projected
	for _, k := range order {
		gr := groups[k]
		if cs.gHaving != nil {
			hv, err := cs.gHaving(env, gr.rep, gr.members)
			if err != nil {
				return nil, err
			}
			ok, err := sqlmini.PredTruth(hv)
			if err != nil {
				return nil, fmt.Errorf("sql: HAVING: %w", err)
			}
			if !ok {
				continue
			}
		}
		row := make([]storage.Value, len(cs.gItems))
		for i, gf := range cs.gItems {
			v, err := gf(env, gr.rep, gr.members)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		p := projected{row: row}
		for _, gf := range cs.gOrder {
			v, err := gf(env, gr.rep, gr.members)
			if err != nil {
				return nil, err
			}
			p.keys = append(p.keys, v)
		}
		rows = append(rows, p)
	}

	if len(cs.gOrder) > 0 {
		var sortErr error
		sort.SliceStable(rows, func(a, b int) bool {
			return sqlmini.OrderLess(rows[a].keys, rows[b].keys, cs.desc, &sortErr)
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}

	out := make([][]storage.Value, 0, len(rows))
	for _, p := range rows {
		out = append(out, p.row)
	}
	if cs.distinct {
		out = sqlmini.DedupRows(out)
	}
	if cs.limit >= 0 && len(out) > cs.limit {
		out = out[:cs.limit]
	}
	return out, nil
}

// compileStatement compiles one resolved action statement.
func (c *compiler) compileStatement(st sqlmini.Statement) (stmtFn, error) {
	switch s := st.(type) {
	case *sqlmini.Select:
		sel, err := c.compileSelect(s)
		if err != nil {
			return nil, err
		}
		return func(env *Env) (sqlmini.StmtResult, error) {
			rows, err := sel(env)
			if err != nil {
				return sqlmini.StmtResult{}, err
			}
			return sqlmini.StmtResult{Rows: cloneRows(rows)}, nil // the caller keeps them
		}, nil
	case *sqlmini.Insert:
		return c.compileInsert(s)
	case *sqlmini.Delete:
		return c.compileDelete(s)
	case *sqlmini.Update:
		return c.compileUpdate(s)
	case *sqlmini.Rollback:
		return func(*Env) (sqlmini.StmtResult, error) {
			return sqlmini.StmtResult{Rolled: true}, nil
		}, nil
	default:
		return nil, errUnsupported{what: fmt.Sprintf("statement %T", st)}
	}
}

func requireMut(env *Env) error {
	if env.Mut == nil {
		return fmt.Errorf("sql: mutating statement in read-only context")
	}
	return nil
}

func (c *compiler) compileInsert(s *sqlmini.Insert) (stmtFn, error) {
	def := c.sch.Table(s.Table)
	if def == nil {
		return nil, errUnsupported{what: fmt.Sprintf("insert into unknown table %q", s.Table)}
	}
	table := def.Name // the schema's string: s.Table may be a slice of a request's text
	var colPos []int
	if len(s.Columns) > 0 {
		colPos = make([]int, len(s.Columns))
		for i, col := range s.Columns {
			colPos[i] = def.ColumnIndex(col)
		}
	}
	nCols := len(def.Columns)

	var queryFn selFn
	var rowFns [][]exprFn
	width := 0      // lifted VALUES rows: each row is the next width cells
	var nulls []int // lifted VALUES rows: the cells that are nulls
	switch {
	case s.Query != nil:
		sel, err := c.compileSelect(s.Query)
		if err != nil {
			return nil, err
		}
		queryFn = sel
	case c.lits != nil && literalRows(s.Rows):
		// A user statement's literal rows are Env.Params in row order
		// with a null in each cell whose literal is not lifted
		// (liftLiterals lifts all others): one closure whatever the row
		// count, which compiles no literal.
		width = len(s.Rows[0])
		for i, row := range s.Rows {
			for j, e := range row {
				if _, ok := c.param(e.(*sqlmini.Literal)); !ok {
					nulls = append(nulls, i*width+j)
				}
			}
		}
	default:
		for _, row := range s.Rows {
			fns := make([]exprFn, len(row))
			for i, e := range row {
				ec, err := c.compileExpr(e)
				if err != nil {
					return nil, err
				}
				fns[i] = ec.fn
			}
			rowFns = append(rowFns, fns)
		}
	}

	return func(env *Env) (sqlmini.StmtResult, error) {
		if err := requireMut(env); err != nil {
			return sqlmini.StmtResult{}, err
		}
		var srcRows [][]storage.Value
		switch {
		case queryFn != nil:
			rows, err := queryFn(env)
			if err != nil {
				return sqlmini.StmtResult{}, err
			}
			srcRows = rows
		case width > 0:
			cells := env.Params
			if nulls != nil {
				cells = make([]storage.Value, len(env.Params)+len(nulls)) // all storage.Null
				p, n := 0, 0
				for i := range cells {
					if n < len(nulls) && nulls[n] == i {
						n++
					} else {
						cells[i] = env.Params[p]
						p++
					}
				}
			}
			srcRows = make([][]storage.Value, 0, len(cells)/width)
			for at := 0; at < len(cells); at += width {
				srcRows = append(srcRows, cells[at:at+width:at+width])
			}
		default:
			for _, fns := range rowFns {
				vals := make([]storage.Value, len(fns))
				for i, fn := range fns {
					v, err := fn(env)
					if err != nil {
						return sqlmini.StmtResult{}, err
					}
					vals[i] = v
				}
				srcRows = append(srcRows, vals)
			}
		}
		if colPos != nil {
			full := make([]storage.Value, nCols*len(srcRows)) // all storage.Null
			rows := make([][]storage.Value, len(srcRows))
			for r, src := range srcRows {
				rows[r] = full[r*nCols : (r+1)*nCols]
				for i, pos := range colPos {
					rows[r][pos] = src[i]
				}
			}
			srcRows = rows
		}
		if len(srcRows) == 0 {
			return sqlmini.StmtResult{}, nil
		}
		n, err := env.Mut.Insert(table, srcRows)
		if err != nil {
			return sqlmini.StmtResult{}, err
		}
		return sqlmini.StmtResult{Affected: n}, nil
	}, nil
}

func (c *compiler) compileDelete(s *sqlmini.Delete) (stmtFn, error) {
	def := c.sch.Table(s.Table)
	if def == nil {
		return nil, errUnsupported{what: fmt.Sprintf("delete from unknown table %q", s.Table)}
	}
	table := def.Name
	slot := c.push(s.Table)
	defer c.pop(1)
	var where condFn
	var pr *probe
	if s.Where != nil {
		wc, err := c.compileExpr(s.Where)
		if err != nil {
			return nil, err
		}
		where, pr = wc.where(), probeOf(wc, slot)
	}
	return func(env *Env) (sqlmini.StmtResult, error) {
		if err := requireMut(env); err != nil {
			return sqlmini.StmtResult{}, err
		}
		t := env.DB.Table(table)
		m := env.mark()
		defer env.release(m)
		var scanErr error
		pr.each(env, t, func(tu *storage.Tuple) bool {
			if where != nil {
				env.Slots[slot] = tu.Vals
				ok, err := where(env)
				if err != nil {
					scanErr = err
					return false
				}
				if !ok {
					return true
				}
			}
			env.ids = append(env.ids, tu.ID)
			return true
		})
		if scanErr != nil {
			return sqlmini.StmtResult{}, scanErr
		}
		ids := env.ids[m.ids:]
		if len(ids) > 0 {
			if err := env.Mut.Delete(table, ids); err != nil {
				return sqlmini.StmtResult{}, err
			}
		}
		return sqlmini.StmtResult{Affected: len(ids)}, nil
	}, nil
}

func (c *compiler) compileUpdate(s *sqlmini.Update) (stmtFn, error) {
	def := c.sch.Table(s.Table)
	if def == nil {
		return nil, errUnsupported{what: fmt.Sprintf("update of unknown table %q", s.Table)}
	}
	table := def.Name
	slot := c.push(s.Table)
	defer c.pop(1)
	var where condFn
	var pr *probe
	if s.Where != nil {
		wc, err := c.compileExpr(s.Where)
		if err != nil {
			return nil, err
		}
		where, pr = wc.where(), probeOf(wc, slot)
	}
	setCols := make([]string, len(s.Sets))
	setFns := make([]exprFn, len(s.Sets))
	for i, sc := range s.Sets {
		col := def.ColumnIndex(sc.Column)
		if col < 0 {
			return nil, errUnsupported{what: fmt.Sprintf("update of unknown column %q", sc.Column)}
		}
		setCols[i] = def.Column(col).Name
		ec, err := c.compileExpr(sc.Expr)
		if err != nil {
			return nil, err
		}
		setFns[i] = ec.fn
	}
	return func(env *Env) (sqlmini.StmtResult, error) {
		if err := requireMut(env); err != nil {
			return sqlmini.StmtResult{}, err
		}
		t := env.DB.Table(table)
		m := env.mark()
		defer env.release(m)
		var scanErr error
		// All right-hand sides are evaluated against the pre-update
		// state; apply only afterwards. A match's new values are pushed
		// once each is evaluated, above whatever a subquery in the next
		// one pushes and releases.
		pr.each(env, t, func(tu *storage.Tuple) bool {
			env.Slots[slot] = tu.Vals
			if where != nil {
				ok, err := where(env)
				if err != nil {
					scanErr = err
					return false
				}
				if !ok {
					return true
				}
			}
			for _, fn := range setFns {
				v, err := fn(env)
				if err != nil {
					scanErr = err
					return false
				}
				env.vals = append(env.vals, v)
			}
			env.ids = append(env.ids, tu.ID)
			return true
		})
		if scanErr != nil {
			return sqlmini.StmtResult{}, scanErr
		}
		ids := env.ids[m.ids:]
		if len(ids) > 0 {
			if err := env.Mut.Update(table, setCols, ids, env.vals[m.vals:]); err != nil {
				return sqlmini.StmtResult{}, err
			}
		}
		return sqlmini.StmtResult{Affected: len(ids)}, nil
	}, nil
}

// probe is an UPDATE's or a DELETE's equality probe: its WHERE cannot
// error and has an AND-conjunct that compares column col of the row in
// slot, the statement's, with key, a lifted literal or a constant
// (compileBinary records it as exprC.eq). A row matches the WHERE only
// if it holds key in col, so the rows to visit are among key's holders,
// which Table.Holders counts when col is an int or string column and
// key a value of its kind (DESIGN.md §11.1 "Equality probes").
type probe struct {
	slot, col int
	key       leaf
}

// eqProbe returns the probe of the comparison l = r when one side is a
// column and the other a lifted literal or a constant, else nil.
func eqProbe(l, r leaf) *probe {
	if r.from == leafColumn {
		l, r = r, l
	}
	if l.from != leafColumn || r.from != leafParam && r.from != leafConst {
		return nil
	}
	return &probe{slot: l.slot, col: l.idx, key: r}
}

// probeOf returns the probe of a WHERE compiled as wc over the row in
// slot, or nil when it has none.
func probeOf(wc exprC, slot int) *probe {
	if !wc.boolTotal() || wc.eq == nil || wc.eq.slot != slot {
		return nil
	}
	return wc.eq
}

// each calls visit on the rows of t the statement's WHERE can match, in
// scan order, until visit returns false: without a probe, or when the
// probe's value has several holders or one the index does not know,
// every live row (Table.Scan); else the one holder, or none. Every
// match is among the rows visited, and skipping the others hides no
// error because the WHERE cannot raise one.
func (p *probe) each(env *Env, t *storage.Table, visit func(*storage.Tuple) bool) {
	if p != nil {
		if n, one, ok := t.Holders(p.col, *p.key.at(env)); ok && (n == 0 || one != nil) {
			if one != nil {
				visit(one)
			}
			return
		}
	}
	t.Scan(visit)
}
