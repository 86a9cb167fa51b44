// Package cg is the fixture for the call-graph golden test and the CFG
// shape tests: a small web covering every resolution mode (direct call,
// method call, func-value binding through a struct field, immediate
// literal, interface dispatch, a literal in a package-level table, a
// local copied from a func-valued field) plus functions whose bodies
// exercise each CFG lowering.
package cg

// Ops carries a func-valued field so the binding-based resolution has
// something to chase.
type Ops struct{ hook func() }

// Top fans out through every resolution mode.
func Top() {
	mid()
	o := Ops{hook: leaf}
	o.run()
	func() { leaf() }()
}

func mid() { leaf() }

func leaf() {}

func (o Ops) run() { o.hook() }

// table binds a literal at package level: the literal is a node of its
// own, reached through the field it is stored in.
var table = map[string]Ops{"leaf": {hook: func() { leaf() }}}

// Lookup calls through the package-level table.
func Lookup() { table["leaf"].hook() }

// Local calls through a local copied from the table's func-valued field:
// the local inherits every function bound to the field.
func Local() {
	h := table["leaf"].hook
	h()
}

// Stringer is implemented by exactly one type, so the interface call in
// Through resolves to a single edge.
type Stringer interface{ Str() string }

// A implements Stringer.
type A struct{}

// Str implements Stringer.
func (A) Str() string { return "a" }

// Through dispatches through the interface.
func Through(s Stringer) string { return s.Str() }

// IfShape is a branch with no else.
func IfShape(a int) int {
	if a > 0 {
		a++
	}
	return a
}

// LoopShape is the classic three-clause for loop with a back edge.
func LoopShape(n int) int {
	sum := 0
	for i := 0; i < n; i++ {
		sum += i
	}
	return sum
}

// SelectShape yields a marker node plus one block per clause.
func SelectShape(ch chan int) int {
	select {
	case v := <-ch:
		return v
	default:
		return 0
	}
}

// DeferShape registers one deferred call.
func DeferShape() {
	defer leaf()
	leaf()
}
