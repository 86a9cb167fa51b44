package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// This file builds the whole-module call graph the interprocedural
// analyzers (ctxflow, lockhold, atomicmix) walk.  Nodes are every declared
// function and method plus every function literal in every loaded package
// — test files included.  Edges come from five resolution strategies, in
// decreasing order of precision:
//
//  1. direct calls to package-level functions and concrete methods,
//  2. calls through interface methods, resolved to every concrete method
//     in the module whose receiver implements the interface (a sound
//     over-approximation for reachability),
//  3. calls through func-typed variables, fields, and parameters, resolved
//     to every function value ever bound to that object anywhere in the
//     module (this is what routes Server.getArtifact -> cfg.Builder ->
//     BuildArtifact),
//  4. immediately invoked function literals, and
//  5. a lexical edge from each function to the literals it encloses, so a
//     literal handed to an external API (http.HandlerFunc, sync.Pool.New)
//     still counts as reachable from its parent.
//
// Calls to functions outside the module (stdlib) are kept as qualified
// names so analyzers can classify them (lockhold's blocking-call table)
// without type-checking the standard library bodies.
//
// Cross-package identity: every package is type-checked in its own
// universe, so the *types.Func a caller sees for an imported function is
// a different object from the one in that function's own loaded package.
// All files go through one shared FileSet, though, so a declaration's
// file:line:col is identical in both universes — functions and binding
// targets are therefore keyed by declaration position, which unifies the
// universes without a second resolver.

// Func is one function in the loaded program: a declared function or
// method (Decl != nil) or a function literal (Lit != nil).
type Func struct {
	Obj    *types.Func   // nil for literals
	Decl   *ast.FuncDecl // nil for literals
	Lit    *ast.FuncLit  // nil for declarations
	Pkg    *Package
	Parent *Func // enclosing function, for literals inside one

	name string
}

// Name returns a stable human-readable identifier: "pkg.Fn",
// "pkg.(Recv).Fn", or "pkg.Fn$N" for the N-th literal inside Fn.
func (f *Func) Name() string { return f.name }

// Body returns the function body (nil for bodyless declarations).
func (f *Func) Body() *ast.BlockStmt {
	if f.Decl != nil {
		return f.Decl.Body
	}
	return f.Lit.Body
}

// FuncType returns the AST type (parameters and results).
func (f *Func) FuncType() *ast.FuncType {
	if f.Decl != nil {
		return f.Decl.Type
	}
	return f.Lit.Type
}

// Pos returns the declaration position.
func (f *Func) Pos() token.Pos {
	if f.Decl != nil {
		return f.Decl.Pos()
	}
	return f.Lit.Pos()
}

// Root returns the outermost declared function enclosing f (f itself for
// declarations).
func (f *Func) Root() *Func {
	for f.Parent != nil {
		f = f.Parent
	}
	return f
}

// Call is one call site inside a function.
type Call struct {
	Expr    *ast.CallExpr
	Callees []*Func // module callees this site may invoke (empty if external or unresolved)
	Ext     string  // qualified name for a non-module callee, e.g. "(*sync.WaitGroup).Wait"
}

// CallGraph is the module-wide graph over Funcs.
type CallGraph struct {
	Funcs  []*Func
	ByNode map[ast.Node]*Func // *ast.FuncDecl / *ast.FuncLit -> Func

	calls   map[*Func][]*Call
	callers map[*Func][]*Func
}

// Calls returns the resolved call sites lexically inside f (not inside
// nested literals).
func (g *CallGraph) Calls(f *Func) []*Call { return g.calls[f] }

// Callees returns every module function f may transfer control to: call
// targets plus lexically nested literals.
func (g *CallGraph) Callees(f *Func) []*Func {
	var out []*Func
	seen := make(map[*Func]bool)
	for _, c := range g.calls[f] {
		for _, t := range c.Callees {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	for _, other := range g.Funcs {
		if other.Parent == f && !seen[other] {
			seen[other] = true
			out = append(out, other)
		}
	}
	return out
}

// Callers returns the functions with an edge into f (lexical parents of
// literals included).
func (g *CallGraph) Callers(f *Func) []*Func { return g.callers[f] }

// Reachable returns the closure of entries under Callees.
func (g *CallGraph) Reachable(entries []*Func) map[*Func]bool {
	seen := make(map[*Func]bool)
	work := append([]*Func(nil), entries...)
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[f] {
			continue
		}
		seen[f] = true
		work = append(work, g.Callees(f)...)
	}
	return seen
}

// posKey renders an object's declaration position as the cross-universe
// identity key (see the package comment above on why position, not
// object identity).
func posKey(fset *token.FileSet, obj types.Object) string {
	if obj == nil || !obj.Pos().IsValid() {
		return ""
	}
	return fset.Position(obj.Pos()).String()
}

// buildCallGraph constructs the graph over every package in the program.
func buildCallGraph(fset *token.FileSet, pkgs []*Package) *CallGraph {
	g := &CallGraph{
		ByNode:  make(map[ast.Node]*Func),
		calls:   make(map[*Func][]*Call),
		callers: make(map[*Func][]*Func),
	}
	byObj := make(map[string]*Func)

	// Pass 1: collect declared functions, then their nested literals.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				f := &Func{Obj: obj, Decl: fd, Pkg: pkg, name: declName(pkg, fd)}
				g.Funcs = append(g.Funcs, f)
				g.ByNode[fd] = f
				if k := posKey(fset, obj); k != "" {
					byObj[k] = f
				}
			}
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if f := g.ByNode[decl]; decl.Body != nil {
						g.collectLits(pkg, f, f.name, decl.Body)
					}
				case *ast.GenDecl:
					// Literals in package-level initializers (a table of
					// func-valued fields) have no enclosing function; they
					// are named after their variable.
					for _, spec := range decl.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) > 0 {
							for _, v := range vs.Values {
								g.collectLits(pkg, nil, pkg.Name+"."+vs.Names[0].Name, v)
							}
						}
					}
				}
			}
		}
	}

	// Pass 2: record every binding of a function value to a variable,
	// struct field, or parameter, so calls through func-typed objects
	// resolve to the set of functions ever stored there.  Targets are
	// keyed by declaration position, so a binding written in cmd/ipgd to
	// a field declared in internal/serve lands on the same key the
	// serve-side call through that field looks up.  A target assigned
	// from another func-typed variable or field (h := t.hook) inherits
	// that object's bindings, closed to a fixpoint over chains of copies.
	bindings := make(map[string][]*Func)
	copies := make(map[string][]string)
	for _, pkg := range pkgs {
		collectFuncBindings(fset, pkg, g, byObj, bindings, copies)
	}
	closeCopies(bindings, copies)

	// Pass 3: resolve call sites.
	res := &callResolver{fset: fset, g: g, byObj: byObj, bindings: bindings, pkgs: pkgs}
	for _, f := range g.Funcs {
		if f.Body() == nil {
			continue
		}
		inspectShallow(f.Body(), func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if c := res.resolve(f.Pkg, call); c != nil {
				g.calls[f] = append(g.calls[f], c)
			}
		})
	}

	// Reverse edges (lexical literal edges included).
	seenEdge := make(map[[2]*Func]bool)
	addCaller := func(from, to *Func) {
		k := [2]*Func{from, to}
		if !seenEdge[k] {
			seenEdge[k] = true
			g.callers[to] = append(g.callers[to], from)
		}
	}
	for _, f := range g.Funcs {
		for _, c := range g.calls[f] {
			for _, t := range c.Callees {
				addCaller(f, t)
			}
		}
		if f.Parent != nil {
			addCaller(f.Parent, f)
		}
	}
	return g
}

// collectLits registers every function literal in node (recursively) as a
// Func named name$N whose Parent is the innermost enclosing function (nil
// for literals in package-level initializers).
func (g *CallGraph) collectLits(pkg *Package, parent *Func, name string, node ast.Node) {
	n := 0
	var walk func(node ast.Node) bool
	walk = func(node ast.Node) bool {
		lit, ok := node.(*ast.FuncLit)
		if !ok {
			return true
		}
		n++
		f := &Func{Lit: lit, Pkg: pkg, Parent: parent, name: fmt.Sprintf("%s$%d", name, n)}
		g.Funcs = append(g.Funcs, f)
		g.ByNode[lit] = f
		g.collectLits(pkg, f, f.name, lit.Body)
		return false
	}
	ast.Inspect(node, walk)
}

// inspectShallow walks body without descending into nested function
// literals, so each node is attributed to its innermost enclosing Func.
func inspectShallow(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

func declName(pkg *Package, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg.Name + "." + fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	if idx, ok := recv.(*ast.IndexExpr); ok { // generic receiver
		recv = idx.X
	}
	name := "?"
	if id, ok := recv.(*ast.Ident); ok {
		name = id.Name
	}
	return pkg.Name + ".(" + name + ")." + fd.Name.Name
}

// collectFuncBindings scans one package for expressions that store a
// function value into a variable, field, or parameter, and records in
// copies[target] the func-typed variables and fields whose value is
// stored there instead.
func collectFuncBindings(fset *token.FileSet, pkg *Package, g *CallGraph, byObj map[string]*Func, bindings map[string][]*Func, copies map[string][]string) {
	funcValueOf := func(e ast.Expr) *Func {
		e = ast.Unparen(e)
		switch e := e.(type) {
		case *ast.FuncLit:
			return g.ByNode[e]
		case *ast.Ident:
			if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
				return byObj[posKey(fset, fn)]
			}
		case *ast.SelectorExpr:
			if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
				return byObj[posKey(fset, fn)] // package-qualified func or method value
			}
		}
		return nil
	}
	// funcVarOf returns the func-typed variable or field an expression
	// reads, or nil.
	funcVarOf := func(e ast.Expr) types.Object {
		var id *ast.Ident
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			id = e
		case *ast.SelectorExpr:
			id = e.Sel
		default:
			return nil
		}
		if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
			if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
				return v
			}
		}
		return nil
	}
	bind := func(target types.Object, val ast.Expr) {
		k := posKey(fset, target)
		if k == "" {
			return
		}
		if f := funcValueOf(val); f != nil {
			bindings[k] = append(bindings[k], f)
		} else if src := posKey(fset, funcVarOf(val)); src != "" && src != k {
			copies[k] = append(copies[k], src)
		}
	}
	lhsObj := func(e ast.Expr) types.Object {
		switch e := e.(type) {
		case *ast.Ident:
			if o := pkg.Info.Defs[e]; o != nil {
				return o
			}
			return pkg.Info.Uses[e]
		case *ast.SelectorExpr:
			return pkg.Info.Uses[e.Sel]
		}
		return nil
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						bind(lhsObj(n.Lhs[i]), n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						bind(pkg.Info.Defs[n.Names[i]], n.Values[i])
					}
				}
			case *ast.KeyValueExpr:
				// Struct literal field: the key resolves to the field object.
				if id, ok := n.Key.(*ast.Ident); ok {
					bind(pkg.Info.Uses[id], n.Value)
				}
			case *ast.CallExpr:
				// Function argument: bind to the callee's parameter object
				// when the callee is a module function.
				callee := staticCallee(pkg, n)
				if callee == nil {
					return true
				}
				cf := byObj[posKey(fset, callee)]
				if cf == nil || cf.Decl == nil {
					return true
				}
				params := flattenParams(cf)
				for i, arg := range n.Args {
					if i >= len(params) {
						break
					}
					bind(cf.Pkg.Info.Defs[params[i]], arg)
				}
			}
			return true
		})
	}
}

// closeCopies adds to every copy target the bindings of its sources,
// repeating until no target gains a function, so a chain of copies
// (a := t.hook; b := a) carries the functions all the way along.
func closeCopies(bindings map[string][]*Func, copies map[string][]string) {
	dsts := make([]string, 0, len(copies))
	for dst := range copies {
		dsts = append(dsts, dst)
	}
	sort.Strings(dsts) // a fixed order keeps every callee list deterministic
	for changed := true; changed; {
		changed = false
		for _, dst := range dsts {
			for _, src := range copies[dst] {
				for _, f := range bindings[src] {
					if !slices.Contains(bindings[dst], f) {
						bindings[dst] = append(bindings[dst], f)
						changed = true
					}
				}
			}
		}
	}
}

// flattenParams returns the parameter idents of a declared function in
// positional order.
func flattenParams(f *Func) []*ast.Ident {
	var out []*ast.Ident
	if f.Decl.Type.Params == nil {
		return out
	}
	for _, field := range f.Decl.Type.Params.List {
		out = append(out, field.Names...)
	}
	return out
}

// staticCallee resolves a call to a statically known *types.Func, or nil.
func staticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

type callResolver struct {
	fset     *token.FileSet
	g        *CallGraph
	byObj    map[string]*Func
	bindings map[string][]*Func
	pkgs     []*Package
}

// resolve classifies one call expression.  It returns nil for type
// conversions and builtins.
func (r *callResolver) resolve(pkg *Package, call *ast.CallExpr) *Call {
	fun := ast.Unparen(call.Fun)
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
		return nil // conversion
	}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		return &Call{Expr: call, Callees: []*Func{r.g.ByNode[fun]}}
	case *ast.Ident:
		switch obj := pkg.Info.Uses[fun].(type) {
		case *types.Builtin:
			return nil
		case *types.Func:
			return r.funcCall(call, obj)
		case *types.Var:
			return &Call{Expr: call, Callees: r.bindings[posKey(r.fset, obj)]}
		case *types.TypeName:
			return nil
		}
		return &Call{Expr: call}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				// Func-typed field accessed through a selector.
				if v, ok := sel.Obj().(*types.Var); ok {
					return &Call{Expr: call, Callees: r.bindings[posKey(r.fset, v)]}
				}
				return &Call{Expr: call}
			}
			if recvIsInterface(sel.Recv()) {
				return &Call{Expr: call, Callees: r.implementations(sel.Recv(), fn), Ext: extName(fn)}
			}
			return r.funcCall(call, fn)
		}
		// Package-qualified function or variable.
		switch obj := pkg.Info.Uses[fun.Sel].(type) {
		case *types.Func:
			return r.funcCall(call, obj)
		case *types.Var:
			return &Call{Expr: call, Callees: r.bindings[posKey(r.fset, obj)]}
		}
		return &Call{Expr: call}
	}
	return &Call{Expr: call}
}

func (r *callResolver) funcCall(call *ast.CallExpr, fn *types.Func) *Call {
	if f := r.byObj[posKey(r.fset, fn)]; f != nil {
		return &Call{Expr: call, Callees: []*Func{f}}
	}
	return &Call{Expr: call, Ext: extName(fn)}
}

func recvIsInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// implementations returns every module method named like fn whose receiver
// type implements the interface the call goes through.
func (r *callResolver) implementations(iface types.Type, fn *types.Func) []*Func {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*Func
	for _, cand := range r.g.Funcs {
		if cand.Obj == nil || cand.Obj.Name() != fn.Name() {
			continue
		}
		sig, ok := cand.Obj.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		rt := sig.Recv().Type()
		if types.Implements(rt, it) || types.Implements(types.NewPointer(rt), it) {
			out = append(out, cand)
		}
	}
	return out
}

// extName qualifies a non-module function for the analyzers' classifier
// tables, e.g. "fmt.Fprintf" or "(*sync.WaitGroup).Wait".
func extName(fn *types.Func) string {
	name := fn.FullName()
	// FullName spells vendored stdlib paths in full; keep the tail two
	// segments so tables can match on "sync.WaitGroup" style names.
	return name
}

// EdgeStrings renders the graph as sorted "caller -> callee" lines, for
// golden tests.
func (g *CallGraph) EdgeStrings() []string {
	var out []string
	for _, f := range g.Funcs {
		for _, t := range g.Callees(f) {
			out = append(out, f.Name()+" -> "+t.Name())
		}
	}
	sort.Strings(out)
	// Dedup.
	w := 0
	for i, s := range out {
		if i == 0 || s != out[w-1] {
			out[w] = s
			w++
		}
	}
	return out[:w]
}

// funcDisplay returns a short label for diagnostics: "Name" or
// "(Recv).Name" without the package prefix.
func funcDisplay(f *Func) string {
	name := f.Name()
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}
