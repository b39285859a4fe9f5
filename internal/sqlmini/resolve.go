package sqlmini

import (
	"fmt"
	"strings"

	"activerules/internal/schema"
)

// ResolveContext supplies the information needed to resolve names in a
// rule's condition and action: the database schema, the rule's triggering
// table (which transition tables are views of), and the transition tables
// the rule may legally reference (Section 2: only those corresponding to
// its triggering operations).
type ResolveContext struct {
	Schema *schema.Schema

	// RuleTable is the rule's table; empty outside a rule context, in
	// which case transition-table references are errors.
	RuleTable string

	// AllowedTrans restricts which transition tables may be referenced.
	// A nil map with a non-empty RuleTable allows all four.
	AllowedTrans map[TransKind]bool
}

func (rc *ResolveContext) transAllowed(k TransKind) bool {
	if rc.RuleTable == "" {
		return false
	}
	if rc.AllowedTrans == nil {
		return true
	}
	return rc.AllowedTrans[k]
}

// scope is one level of FROM bindings during resolution.
type scope struct {
	items  []*TableRef
	parent *scope
}

// transKindOf maps a surface table name to a transition kind.
func transKindOf(name string) TransKind {
	switch name {
	case "inserted":
		return TransInserted
	case "deleted":
		return TransDeleted
	case "new-updated":
		return TransNewUpdated
	case "old-updated":
		return TransOldUpdated
	default:
		return TransNone
	}
}

// ResolveStatement resolves all names in the statement, annotating
// TableRef and ColRef nodes in place. It must be called exactly once per
// AST before analysis or evaluation.
func ResolveStatement(st Statement, rc *ResolveContext) error {
	switch s := st.(type) {
	case *Select:
		return resolveSelect(s, rc, nil, true)
	case *Insert:
		return resolveInsert(s, rc)
	case *Delete:
		return resolveDelete(s, rc)
	case *Update:
		return resolveUpdate(s, rc)
	case *Rollback:
		return nil
	default:
		return fmt.Errorf("sql: unknown statement type %T", st)
	}
}

// ResolveExpr resolves a standalone predicate (a rule condition). The
// expression is evaluated with no FROM bindings of its own; all column
// references must come from subqueries or transition tables used inside
// subqueries, mirroring Starburst conditions which are SQL predicates
// over subqueries.
func ResolveExpr(e Expr, rc *ResolveContext) error {
	return resolveExpr(e, rc, nil, false)
}

func resolveSelect(s *Select, rc *ResolveContext, parent *scope, allowAgg bool) error {
	sc := &scope{parent: parent}
	seen := map[string]bool{}
	for _, tr := range s.From {
		if err := resolveTableRef(tr, rc); err != nil {
			return err
		}
		alias := tr.EffectiveAlias()
		if seen[alias] {
			return fmt.Errorf("sql: duplicate FROM alias %q", alias)
		}
		seen[alias] = true
		sc.items = append(sc.items, tr)
	}
	star := false
	for _, it := range s.Items {
		if it.Expr == nil {
			star = true
			continue
		}
		if err := resolveExprAgg(it.Expr, rc, sc, allowAgg); err != nil {
			return err
		}
	}
	if star {
		if len(s.Items) != 1 {
			return fmt.Errorf("sql: '*' must be the only select item")
		}
		if len(s.From) == 0 {
			return fmt.Errorf("sql: '*' requires a FROM clause")
		}
	}
	if HasAggregateItems(s) && len(s.GroupBy) == 0 {
		for _, it := range s.Items {
			if it.Expr == nil {
				return fmt.Errorf("sql: cannot mix '*' with aggregates")
			}
			if _, ok := it.Expr.(*Aggregate); !ok {
				return fmt.Errorf("sql: without GROUP BY, every select item must be an aggregate when any is")
			}
		}
	}
	if s.Where != nil {
		if err := resolveExpr(s.Where, rc, sc, false); err != nil {
			return err
		}
	}
	if len(s.GroupBy) > 0 {
		if err := resolveGrouping(s, rc, sc); err != nil {
			return err
		}
	}
	if len(s.OrderBy) > 0 {
		if HasAggregateItems(s) && len(s.GroupBy) == 0 {
			return fmt.Errorf("sql: ORDER BY cannot be combined with aggregates (the result is a single row)")
		}
		for _, o := range s.OrderBy {
			if err := resolveExpr(o.Expr, rc, sc, false); err != nil {
				return err
			}
			if len(s.GroupBy) > 0 && !isGroupingColumn(s, o.Expr) {
				return fmt.Errorf("sql: ORDER BY key %s is not a grouping column", o.Expr)
			}
		}
	}
	return nil
}

// resolveGrouping resolves GROUP BY columns and HAVING, and checks that
// every non-aggregate select item is a grouping column.
func resolveGrouping(s *Select, rc *ResolveContext, sc *scope) error {
	for _, g := range s.GroupBy {
		cr, ok := g.(*ColRef)
		if !ok {
			return fmt.Errorf("sql: GROUP BY supports column references only, got %s", g)
		}
		if err := resolveColRef(cr, rc, sc); err != nil {
			return err
		}
	}
	for _, it := range s.Items {
		if it.Expr == nil {
			return fmt.Errorf("sql: '*' cannot be combined with GROUP BY")
		}
		if _, isAgg := it.Expr.(*Aggregate); isAgg {
			continue
		}
		if !isGroupingColumn(s, it.Expr) {
			return fmt.Errorf("sql: select item %s is neither an aggregate nor a grouping column", it.Expr)
		}
	}
	if s.Having != nil {
		if err := resolveHaving(s.Having, rc, sc, s); err != nil {
			return err
		}
	}
	return nil
}

// isGroupingColumn reports whether e is a resolved column reference
// matching one of the GROUP BY columns.
func isGroupingColumn(s *Select, e Expr) bool {
	cr, ok := e.(*ColRef)
	if !ok {
		return false
	}
	for _, g := range s.GroupBy {
		gc := g.(*ColRef)
		if gc.RSource == cr.RSource && gc.RIndex == cr.RIndex {
			return true
		}
	}
	return false
}

// resolveHaving resolves a HAVING predicate: aggregates are legal at any
// depth (their arguments may not nest further aggregates), and plain
// column references must be grouping columns.
func resolveHaving(e Expr, rc *ResolveContext, sc *scope, s *Select) error {
	switch x := e.(type) {
	case *Aggregate:
		if x.Arg == nil {
			return nil
		}
		return resolveExprAgg(x.Arg, rc, sc, false)
	case *ColRef:
		if err := resolveColRef(x, rc, sc); err != nil {
			return err
		}
		if !isGroupingColumn(s, x) {
			return fmt.Errorf("sql: HAVING references %s, which is not a grouping column", x)
		}
		return nil
	case *Unary:
		return resolveHaving(x.X, rc, sc, s)
	case *Binary:
		if err := resolveHaving(x.L, rc, sc, s); err != nil {
			return err
		}
		return resolveHaving(x.R, rc, sc, s)
	case *IsNull:
		return resolveHaving(x.X, rc, sc, s)
	case *InList:
		if err := resolveHaving(x.X, rc, sc, s); err != nil {
			return err
		}
		for _, v := range x.Vals {
			if err := resolveHaving(v, rc, sc, s); err != nil {
				return err
			}
		}
		return nil
	default:
		// Literals and subqueries resolve by the normal rules.
		return resolveExprAgg(e, rc, sc, false)
	}
}

func resolveTableRef(tr *TableRef, rc *ResolveContext) error {
	tr.Name = strings.ToLower(tr.Name)
	tr.Alias = strings.ToLower(tr.Alias)
	if k := transKindOf(tr.Name); k != TransNone {
		if !rc.transAllowed(k) {
			if rc.RuleTable == "" {
				return fmt.Errorf("sql: transition table %q referenced outside a rule", tr.Name)
			}
			return fmt.Errorf("sql: rule on %q may not reference transition table %q (not a triggering operation)",
				rc.RuleTable, tr.Name)
		}
		tr.Trans = k
		tr.RTable = strings.ToLower(rc.RuleTable)
		return nil
	}
	t := rc.Schema.Table(tr.Name)
	if t == nil {
		return fmt.Errorf("sql: unknown table %q", tr.Name)
	}
	tr.Trans = TransNone
	tr.RTable = t.Name
	return nil
}

// resolveExpr resolves an expression in which aggregate calls are illegal.
func resolveExpr(e Expr, rc *ResolveContext, sc *scope, allowAgg bool) error {
	return resolveExprAgg(e, rc, sc, allowAgg)
}

func resolveExprAgg(e Expr, rc *ResolveContext, sc *scope, allowAgg bool) error {
	switch x := e.(type) {
	case *Literal:
		return nil
	case *ColRef:
		return resolveColRef(x, rc, sc)
	case *Unary:
		return resolveExprAgg(x.X, rc, sc, false)
	case *Binary:
		if err := resolveExprAgg(x.L, rc, sc, false); err != nil {
			return err
		}
		return resolveExprAgg(x.R, rc, sc, false)
	case *IsNull:
		return resolveExprAgg(x.X, rc, sc, false)
	case *InList:
		if err := resolveExprAgg(x.X, rc, sc, false); err != nil {
			return err
		}
		for _, v := range x.Vals {
			if err := resolveExprAgg(v, rc, sc, false); err != nil {
				return err
			}
		}
		return nil
	case *InSelect:
		if err := resolveExprAgg(x.X, rc, sc, false); err != nil {
			return err
		}
		if err := checkSingleColumn(x.Sub); err != nil {
			return err
		}
		return resolveSelect(x.Sub, rc, sc, true)
	case *Exists:
		return resolveSelect(x.Sub, rc, sc, true)
	case *ScalarSubquery:
		if err := checkSingleColumn(x.Sub); err != nil {
			return err
		}
		return resolveSelect(x.Sub, rc, sc, true)
	case *Aggregate:
		if !allowAgg {
			return fmt.Errorf("sql: aggregate %s is only allowed in a select list", x.Func)
		}
		if x.Arg == nil {
			return nil
		}
		return resolveExprAgg(x.Arg, rc, sc, false)
	default:
		return fmt.Errorf("sql: unknown expression type %T", e)
	}
}

func checkSingleColumn(s *Select) error {
	if len(s.Items) != 1 || s.Items[0].Expr == nil {
		return fmt.Errorf("sql: subquery used as a value must select exactly one column")
	}
	return nil
}

func resolveColRef(c *ColRef, rc *ResolveContext, sc *scope) error {
	c.Qualifier = strings.ToLower(c.Qualifier)
	c.Column = strings.ToLower(c.Column)
	for s := sc; s != nil; s = s.parent {
		for _, tr := range s.items {
			if c.Qualifier != "" {
				if tr.EffectiveAlias() != c.Qualifier {
					continue
				}
				return bindColRef(c, tr, rc)
			}
			// Unqualified: does this item have the column?
			t := rc.Schema.Table(tr.RTable)
			if t != nil && t.HasColumn(c.Column) {
				// Ambiguity check within the same scope level.
				for _, other := range s.items {
					if other == tr {
						continue
					}
					ot := rc.Schema.Table(other.RTable)
					if ot != nil && ot.HasColumn(c.Column) {
						return fmt.Errorf("sql: ambiguous column %q (in %q and %q)",
							c.Column, tr.EffectiveAlias(), other.EffectiveAlias())
					}
				}
				return bindColRef(c, tr, rc)
			}
		}
	}
	if c.Qualifier != "" {
		if transKindOf(c.Qualifier) != TransNone {
			return fmt.Errorf("sql: transition table %q must be listed in a FROM clause to be referenced", c.Qualifier)
		}
		return fmt.Errorf("sql: unknown table or alias %q", c.Qualifier)
	}
	return fmt.Errorf("sql: unknown column %q", c.Column)
}

func bindColRef(c *ColRef, tr *TableRef, rc *ResolveContext) error {
	t := rc.Schema.Table(tr.RTable)
	if t == nil {
		return fmt.Errorf("sql: internal: unresolved table %q", tr.RTable)
	}
	idx := t.ColumnIndex(c.Column)
	if idx < 0 {
		return fmt.Errorf("sql: table %q has no column %q", tr.EffectiveAlias(), c.Column)
	}
	c.RTable = t.Name
	c.RSource = tr.EffectiveAlias()
	c.RIndex = idx
	return nil
}

func resolveInsert(s *Insert, rc *ResolveContext) error {
	s.Table = strings.ToLower(s.Table)
	t := rc.Schema.Table(s.Table)
	if t == nil {
		return fmt.Errorf("sql: insert into unknown table %q", s.Table)
	}
	ncols := len(t.Columns)
	if len(s.Columns) > 0 {
		seen := map[string]bool{}
		for i, c := range s.Columns {
			c = strings.ToLower(c)
			s.Columns[i] = c
			if !t.HasColumn(c) {
				return fmt.Errorf("sql: table %q has no column %q", s.Table, c)
			}
			if seen[c] {
				return fmt.Errorf("sql: duplicate insert column %q", c)
			}
			seen[c] = true
		}
		ncols = len(s.Columns)
	}
	if s.Query != nil {
		if err := resolveSelect(s.Query, rc, nil, true); err != nil {
			return err
		}
		n := len(s.Query.Items)
		if n == 1 && s.Query.Items[0].Expr == nil {
			// '*' — arity is that of the (single) FROM table.
			if len(s.Query.From) != 1 {
				return fmt.Errorf("sql: insert-select '*' requires exactly one source table")
			}
			src := rc.Schema.Table(s.Query.From[0].RTable)
			n = len(src.Columns)
		}
		if n != ncols {
			return fmt.Errorf("sql: insert into %q expects %d columns, query yields %d", s.Table, ncols, n)
		}
		return nil
	}
	for _, row := range s.Rows {
		if len(row) != ncols {
			return fmt.Errorf("sql: insert into %q expects %d values, got %d", s.Table, ncols, len(row))
		}
		for _, e := range row {
			if err := resolveExpr(e, rc, nil, false); err != nil {
				return err
			}
		}
	}
	return nil
}

func resolveDelete(s *Delete, rc *ResolveContext) error {
	s.Table = strings.ToLower(s.Table)
	if transKindOf(s.Table) != TransNone {
		return fmt.Errorf("sql: cannot delete from transition table %q", s.Table)
	}
	t := rc.Schema.Table(s.Table)
	if t == nil {
		return fmt.Errorf("sql: delete from unknown table %q", s.Table)
	}
	if s.Where != nil {
		sc := &scope{items: []*TableRef{{Name: s.Table, RTable: t.Name}}}
		return resolveExpr(s.Where, rc, sc, false)
	}
	return nil
}

func resolveUpdate(s *Update, rc *ResolveContext) error {
	s.Table = strings.ToLower(s.Table)
	if transKindOf(s.Table) != TransNone {
		return fmt.Errorf("sql: cannot update transition table %q", s.Table)
	}
	t := rc.Schema.Table(s.Table)
	if t == nil {
		return fmt.Errorf("sql: update of unknown table %q", s.Table)
	}
	sc := &scope{items: []*TableRef{{Name: s.Table, RTable: t.Name}}}
	seen := map[string]bool{}
	for i := range s.Sets {
		col := strings.ToLower(s.Sets[i].Column)
		s.Sets[i].Column = col
		if !t.HasColumn(col) {
			return fmt.Errorf("sql: table %q has no column %q", s.Table, col)
		}
		if seen[col] {
			return fmt.Errorf("sql: duplicate set column %q", col)
		}
		seen[col] = true
		if err := resolveExpr(s.Sets[i].Expr, rc, sc, false); err != nil {
			return err
		}
	}
	if s.Where != nil {
		return resolveExpr(s.Where, rc, sc, false)
	}
	return nil
}
