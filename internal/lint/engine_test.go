package lint

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// loadEngineFixture loads the testdata/callgraph package, the common
// subject of the call-graph golden test and the CFG shape tests.
func loadEngineFixture(t *testing.T) *Program {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "callgraph"))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader()
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading callgraph fixture: %v", err)
	}
	return &Program{Fset: l.Fset, Packages: []*Package{pkg}}
}

func findFunc(t *testing.T, prog *Program, name string) *Func {
	t.Helper()
	for _, f := range prog.CallGraph().Funcs {
		if f.Name() == name {
			return f
		}
	}
	t.Fatalf("function %s not found in fixture", name)
	return nil
}

// TestCallGraphGolden pins the full edge set of the fixture, one edge per
// resolution mode: direct call, method call, binding through a func-valued
// field, immediate literal invocation, literal nesting, interface
// dispatch, a deferred call, a literal bound in a package-level table, and
// a call through a local copied from a func-valued field.
func TestCallGraphGolden(t *testing.T) {
	prog := loadEngineFixture(t)
	got := prog.CallGraph().EdgeStrings()
	want := []string{
		"cg.(Ops).run -> cg.leaf",
		"cg.(Ops).run -> cg.table$1",
		"cg.DeferShape -> cg.leaf",
		"cg.Local -> cg.leaf",
		"cg.Local -> cg.table$1",
		"cg.Lookup -> cg.leaf",
		"cg.Lookup -> cg.table$1",
		"cg.Through -> cg.(A).Str",
		"cg.Top -> cg.(Ops).run",
		"cg.Top -> cg.Top$1",
		"cg.Top -> cg.mid",
		"cg.Top$1 -> cg.leaf",
		"cg.mid -> cg.leaf",
		"cg.table$1 -> cg.leaf",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("call graph edges:\ngot:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestCFGShapes pins the rendered block structure of each lowering the
// analyzers rely on: branch joins, loop back edges, select clause fan-out,
// and the unreachable continuation block a return leaves behind.
func TestCFGShapes(t *testing.T) {
	prog := loadEngineFixture(t)
	cases := []struct {
		fn   string
		want string
	}{
		{"cg.IfShape", `b0 entry [cond] -> [1 2]
b1 [incdec] -> [2]
b2 [return] -> [4]
b3 [] -> [4]
b4 exit [] -> []
`},
		{"cg.LoopShape", `b0 entry [assign assign] -> [1]
b1 [cond] -> [2 3]
b2 [assign] -> [4]
b3 [return] -> [6]
b4 [incdec] -> [1]
b5 [] -> [6]
b6 exit [] -> []
`},
		{"cg.SelectShape", `b0 entry [select] -> [2 4]
b1 [] -> [6]
b2 [assign return] -> [6]
b3 [] -> [1]
b4 [return] -> [6]
b5 [] -> [1]
b6 exit [] -> []
`},
		{"cg.DeferShape", `b0 entry [defer expr] -> [1]
b1 exit [] -> []
`},
	}
	for _, tc := range cases {
		f := findFunc(t, prog, tc.fn)
		if got := prog.CFG(f).String(); got != tc.want {
			t.Errorf("%s CFG:\ngot:\n%swant:\n%s", tc.fn, got, tc.want)
		}
	}
}

// TestCFGSideTables checks the two side tables the analyzers consume: the
// deferred-statement list (poolsafety) and the select-comm marker set
// (lockhold's exemption of committed channel operations).
func TestCFGSideTables(t *testing.T) {
	prog := loadEngineFixture(t)
	if d := prog.CFG(findFunc(t, prog, "cg.DeferShape")).Defers; len(d) != 1 {
		t.Errorf("DeferShape: %d deferred statements recorded, want 1", len(d))
	}
	if c := prog.CFG(findFunc(t, prog, "cg.SelectShape")).Comm; len(c) != 1 {
		t.Errorf("SelectShape: %d comm statements recorded, want 1", len(c))
	}
}
