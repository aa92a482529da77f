// Package poolsafe enforces the VecPool ownership contract: a batch or
// vector obtained from a pool must either be handed onward (to an
// operator, a Release call, a field, a slice, a return value — ownership
// transfers with the reference) or it leaks from the pool's perspective,
// and worse, a forgotten Release on the hot path quietly reintroduces the
// per-batch allocations the pool exists to remove.
//
// The pass is an escape check, not a full path-sensitive proof: for every
// `p.GetBatch(...)` / `p.GetVector(...)` / `p.GetSel(...)` / `p.GetBits(...)` call on a
// VecPool it demands that the result either escapes the function (call
// argument — which covers Release, PutSel and copy-out helpers —, return
// statement, assignment into a field/element/outer variable, composite
// literal, channel send) or the call carries a `//taster:pooled <why>`
// annotation. Results that are discarded outright, or bound to a local
// that is only ever read, are exactly the leak shapes and are reported.
//
// Selection vectors ride the same contract as batches: a morsel worker
// borrows each filter's GetSel buffer once and stores it in its own fields
// (a build side, in its drain's filter header) — an assignment-into-field
// escape — and hands it back with PutSel when it is done. A GetSel result
// that stays a read-only local is a leaked sel buffer exactly like a leaked
// batch.
package poolsafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/tasterdb/taster/internal/lint"
)

// Analyzer is the poolsafe pass.
var Analyzer = &lint.Analyzer{
	Name: "poolsafe",
	Doc:  "require every VecPool Get result to be released, returned or handed onward on all paths",
	Run:  run,
}

// getMethods are the pool's allocation entry points.
var getMethods = map[string]bool{"GetBatch": true, "GetVector": true, "GetSel": true, "GetBits": true}

func run(pass *lint.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, f, fd)
		}
	}
}

// isPoolGet reports whether call is <expr>.GetBatch/GetVector/GetSel on a value
// whose named type is VecPool (matching by name keeps the analyzer
// honest in fixtures while binding to internal/storage in the real tree).
func isPoolGet(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !getMethods[sel.Sel.Name] {
		return false
	}
	t := pass.Info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "VecPool"
}

func checkFunc(pass *lint.Pass, file *ast.File, fd *ast.FuncDecl) {
	// First pass: find Get calls and how their results are bound.
	type binding struct {
		call *ast.CallExpr
		obj  types.Object // local the result is bound to; nil if unbound
	}
	var gets []binding
	bound := map[*ast.CallExpr]bool{}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isPoolGet(pass, call) {
				continue
			}
			bound[call] = true
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				// Directly assigned into a field/element: that is already
				// an escape (ownership moved into the structure).
				continue
			}
			var obj types.Object
			if as.Tok == token.DEFINE {
				obj = pass.Info.Defs[id]
			} else {
				obj = pass.Info.Uses[id]
			}
			if obj == nil {
				continue
			}
			// Binding to a pre-existing variable (plain =) also counts as
			// a local we must track, same as :=.
			gets = append(gets, binding{call: call, obj: obj})
		}
		return true
	})

	// Unbound Get calls: fine when nested in a call/return/composite (the
	// result escapes immediately), a leak when the statement discards it.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || !isPoolGet(pass, call) || bound[call] {
			return true
		}
		if pass.Prog.Annotated(file, call, "taster:pooled") {
			return true
		}
		pass.Reportf(call.Pos(), "pooled %s result discarded: the batch can never be released back to the pool; bind it and Release it (or copy out) when consumed", callName(call))
		return true
	})

	for _, g := range gets {
		if pass.Prog.Annotated(file, g.call, "taster:pooled") {
			continue
		}
		if escapes(pass, fd, g.obj, g.call) {
			continue
		}
		pass.Reportf(g.call.Pos(), "pooled %s result %s never escapes this function: no Release, no return, no hand-off — the pool contract requires release-on-consume or an explicit copy-out (annotate //taster:pooled <why> if ownership is genuinely local)", callName(g.call), g.obj.Name())
	}
}

func callName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return "Get"
}

// escapes reports whether obj (bound at get) is ever handed onward:
// passed to any call (Release included), returned, stored into a field,
// element or another variable, placed in a composite literal, or sent on
// a channel.
func escapes(pass *lint.Pass, fd *ast.FuncDecl, obj types.Object, get *ast.CallExpr) bool {
	parents := map[ast.Node]ast.Node{}
	var prev []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			prev = prev[:len(prev)-1]
			return true
		}
		if len(prev) > 0 {
			parents[n] = prev[len(prev)-1]
		}
		prev = append(prev, n)
		return true
	})

	escape := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if escape {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || pass.Info.Uses[id] != obj || id.Pos() <= get.Pos() {
			return true
		}
		// Walk outward judging the use by its syntactic context.
		var child ast.Node = id
		for p := parents[id]; p != nil; child, p = p, parents[p] {
			switch parent := p.(type) {
			case *ast.CallExpr:
				for _, arg := range parent.Args {
					if arg == child {
						escape = true
						return false
					}
				}
				// Receiver position (v.Len()) is a read; stop walking —
				// the call result, not v, flows outward from here.
				return true
			case *ast.ReturnStmt, *ast.CompositeLit, *ast.SendStmt:
				escape = true
				return false
			case *ast.AssignStmt:
				for _, rhs := range parent.Rhs {
					if rhs == child {
						// Stored somewhere: field, element or another
						// variable all transfer the reference onward.
						escape = true
						return false
					}
				}
				return true // appears only on the LHS: a rebind, not a use
			case *ast.SelectorExpr, *ast.IndexExpr, *ast.ParenExpr, *ast.StarExpr, *ast.UnaryExpr, *ast.KeyValueExpr:
				// keep walking outward
			default:
				return true // reached a statement: plain local read
			}
		}
		return true
	})
	return escape
}
