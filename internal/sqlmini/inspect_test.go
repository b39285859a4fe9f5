package sqlmini

import (
	goast "go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"activerules/internal/storage"
)

// astNodeTypes returns the names of the package's node types — every
// type with an exprNode or stmtNode method — read from the source, so a
// node kind added to the AST joins the oracle below without anyone
// remembering to list it.
func astNodeTypes(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	fset := gotoken.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := goparser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*goast.FuncDecl)
			if !ok || fn.Recv == nil || (fn.Name.Name != "exprNode" && fn.Name.Name != "stmtNode") {
				continue
			}
			star, ok := fn.Recv.List[0].Type.(*goast.StarExpr)
			if !ok {
				t.Fatalf("%s: %s has a non-pointer receiver", name, fn.Name.Name)
			}
			out = append(out, star.X.(*goast.Ident).Name)
		}
	}
	sort.Strings(out)
	return out
}

var (
	exprIface = reflect.TypeOf((*Expr)(nil)).Elem()
	stmtIface = reflect.TypeOf((*Statement)(nil)).Elem()
)

// markerFill sets every child-holding field of the struct v points to
// (Expr, []Expr, [][]Expr, *Select, []SelectItem, []OrderItem,
// []SetClause) to fresh marker nodes, and returns the markers in field
// order — the order Inspect must reach them in. Any other field that
// could hold a node is an error: the oracle, like Inspect, would not
// know its children.
func markerFill(t *testing.T, v reflect.Value) []Node {
	t.Helper()
	var want []Node
	expr := func() Expr {
		m := &Literal{Val: storage.IntV(int64(len(want)))}
		want = append(want, m)
		return m
	}
	s := v.Elem()
	for i := 0; i < s.NumField(); i++ {
		f, ft := s.Field(i), s.Type().Field(i)
		var fill any
		switch ft.Type {
		case exprIface:
			fill = expr()
		case reflect.TypeOf([]Expr(nil)):
			fill = []Expr{expr(), expr()}
		case reflect.TypeOf([][]Expr(nil)):
			a, b, c := expr(), expr(), expr()
			fill = [][]Expr{{a, b}, {c}}
		case reflect.TypeOf((*Select)(nil)):
			m := &Select{Limit: -1}
			want = append(want, m)
			fill = m
		case reflect.TypeOf([]SelectItem(nil)):
			a, b := expr(), expr()
			fill = []SelectItem{{Expr: a}, {}, {Expr: b}}
		case reflect.TypeOf([]OrderItem(nil)):
			a, b := expr(), expr()
			fill = []OrderItem{{Expr: a}, {Expr: b, Desc: true}}
		case reflect.TypeOf([]SetClause(nil)):
			a, b := expr(), expr()
			fill = []SetClause{{Column: "a", Expr: a}, {Column: "b", Expr: b}}
		default:
			if holdsNode(ft.Type, map[reflect.Type]bool{}) {
				t.Fatalf("%s.%s (%s) can hold a node, but neither the oracle nor Inspect knows its shape",
					s.Type().Name(), ft.Name, ft.Type)
			}
			continue
		}
		f.Set(reflect.ValueOf(fill))
	}
	return want
}

// holdsNode reports whether a value of type ty can contain a node.
func holdsNode(ty reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[ty] {
		return false
	}
	seen[ty] = true
	if ty.Kind() == reflect.Interface {
		// Every Expr (or Statement) fits in it.
		return exprIface.Implements(ty) || stmtIface.Implements(ty)
	}
	if ty.Implements(exprIface) || ty.Implements(stmtIface) {
		return true
	}
	switch ty.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map:
		return holdsNode(ty.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < ty.NumField(); i++ {
			if holdsNode(ty.Field(i).Type, seen) {
				return true
			}
		}
	}
	return false
}

// TestInspectReflectiveOracle: for every node type, Inspect reaches
// exactly the children a reflective walk of the struct's fields finds,
// in field (= source) order, and skips the absent ones.
func TestInspectReflectiveOracle(t *testing.T) {
	nodes := []Node{
		&Literal{}, &ColRef{}, &Unary{}, &Binary{}, &IsNull{}, &InList{},
		&InSelect{}, &Exists{}, &ScalarSubquery{}, &Aggregate{},
		&Select{}, &Insert{}, &Delete{}, &Update{}, &Rollback{},
	}
	var listed []string
	for _, n := range nodes {
		listed = append(listed, reflect.TypeOf(n).Elem().Name())
	}
	sort.Strings(listed)
	if got := astNodeTypes(t); !reflect.DeepEqual(got, listed) {
		t.Fatalf("AST node types %v, oracle lists %v", got, listed)
	}
	for _, root := range nodes {
		name := reflect.TypeOf(root).Elem().Name()
		want := markerFill(t, reflect.ValueOf(root))
		var got []Node
		Inspect(root, func(n Node) bool {
			if n != root {
				got = append(got, n)
			}
			return true
		})
		if len(got) != len(want) {
			t.Errorf("%s: Inspect reached %d children, the fields hold %d", name, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: child %d is %v, want %v", name, i, got[i], want[i])
			}
		}
		// Returning false prunes: only the root is visited.
		visits := 0
		Inspect(root, func(Node) bool { visits++; return false })
		if visits != 1 {
			t.Errorf("%s: a pruning callback was called %d times, want 1", name, visits)
		}
	}
	// Absent children are skipped, never handed to f as nil.
	for _, root := range []Node{&Select{Items: []SelectItem{{}}}, &Insert{}, &Aggregate{Func: "count"}, &Delete{}} {
		Inspect(root, func(n Node) bool {
			if n == nil || reflect.ValueOf(n).IsNil() {
				t.Errorf("%s: Inspect handed f a nil node", reflect.TypeOf(root).Elem().Name())
			}
			return true
		})
	}
}
