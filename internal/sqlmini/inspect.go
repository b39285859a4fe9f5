package sqlmini

// Node is a Statement or an Expr: anything Inspect visits.
type Node interface {
	String() string
}

// Inspect traverses the tree rooted at n depth-first, in the style of
// go/ast.Inspect: it calls f(n) and, if f returns true, inspects each
// of n's children in source order. Absent children (a nil WHERE, the
// '*' select item, count(*)'s argument) are skipped, so f never sees a
// nil node. A *Select's FROM items are not nodes: f reads them off the
// *Select it is handed.
//
// Inspect is the one structural walk of the SQL tree; every analysis
// that only collects (Reads, the shard router's tables, absint's read
// contexts, compile's user statement shapes) is a callback over it. Walks that give the nodes a meaning
// of their own — eval, compile, resolve, typecheck — keep their own
// recursion. A node kind or child field added to the AST needs a line
// here, and inspect_test.go's reflective oracle fails until it has one.
func Inspect(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	switch x := n.(type) {
	case *Select:
		for _, it := range x.Items {
			Inspect(it.Expr, f)
		}
		Inspect(x.Where, f)
		for _, g := range x.GroupBy {
			Inspect(g, f)
		}
		Inspect(x.Having, f)
		for _, o := range x.OrderBy {
			Inspect(o.Expr, f)
		}
	case *Insert:
		for _, row := range x.Rows {
			for _, e := range row {
				Inspect(e, f)
			}
		}
		if x.Query != nil {
			Inspect(x.Query, f)
		}
	case *Delete:
		Inspect(x.Where, f)
	case *Update:
		for _, sc := range x.Sets {
			Inspect(sc.Expr, f)
		}
		Inspect(x.Where, f)
	case *Unary:
		Inspect(x.X, f)
	case *Binary:
		Inspect(x.L, f)
		Inspect(x.R, f)
	case *IsNull:
		Inspect(x.X, f)
	case *InList:
		Inspect(x.X, f)
		for _, v := range x.Vals {
			Inspect(v, f)
		}
	case *InSelect:
		Inspect(x.X, f)
		Inspect(x.Sub, f)
	case *Exists:
		Inspect(x.Sub, f)
	case *ScalarSubquery:
		Inspect(x.Sub, f)
	case *Aggregate:
		Inspect(x.Arg, f)
	}
}
