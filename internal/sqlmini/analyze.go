package sqlmini

import (
	"activerules/internal/schema"
)

// StatementPerforms computes the Performs contribution of one statement
// (Section 3): the set of operations in O the statement may perform.
// SELECT and ROLLBACK perform no database modification operations. The
// statement must be resolved.
func StatementPerforms(st Statement) schema.OpSet {
	out := schema.NewOpSet()
	switch s := st.(type) {
	case *Insert:
		out.Add(schema.Insert(s.Table))
	case *Delete:
		out.Add(schema.Delete(s.Table))
	case *Update:
		for _, sc := range s.Sets {
			out.Add(schema.Update(s.Table, sc.Column))
		}
	}
	return out
}

// StatementReads computes the Reads contribution of one statement
// (Section 3): every t.c the statement may read, with transition-table
// references charged to the rule's triggering table (the resolver has
// already rewritten them). sch is needed to expand "select *".
//
// Per the paper's footnote 3, DELETE and UPDATE without column references
// in their predicates or right-hand sides read nothing: it is possible in
// SQL to delete from or update a table without reading it.
func StatementReads(st Statement, sch *schema.Schema) schema.ColSet { return reads(st, sch) }

// ExprReads computes the Reads set of a resolved standalone expression
// (a rule condition).
func ExprReads(e Expr, sch *schema.Schema) schema.ColSet { return reads(e, sch) }

func reads(n Node, sch *schema.Schema) schema.ColSet {
	out := schema.NewColSet()
	Inspect(n, func(n Node) bool {
		switch x := n.(type) {
		case *ColRef:
			out.Add(schema.ColRef(x.RTable, x.Column))
		case *Select:
			for _, it := range x.Items {
				if it.Expr != nil {
					continue
				}
				// '*': every column of every FROM table.
				for _, tr := range x.From {
					if t := sch.Table(tr.RTable); t != nil {
						for _, c := range t.Columns {
							out.Add(schema.ColRef(t.Name, c.Name))
						}
					}
				}
			}
		}
		return true
	})
	return out
}

// IsObservable reports whether the statement is observable in the sense
// of Section 3: it is visible to the environment. In Starburst these are
// data retrieval (top-level SELECT in an action) and ROLLBACK.
func IsObservable(st Statement) bool {
	switch st.(type) {
	case *Select, *Rollback:
		return true
	default:
		return false
	}
}
