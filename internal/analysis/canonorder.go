package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Canonorder guards the canonical-output invariant: Go map iteration
// order is deliberately randomized, so a `range` over a map whose body
// builds ordered output — appending to a slice, writing to an io.Writer
// or strings.Builder, feeding a hash — produces a different artifact on
// every run. Every byte-identity guarantee in this repo (golden CSVs,
// metrics CSVs, cache keys, parallel≡serial sweeps) dies on exactly this
// pattern.
//
// A site is clean if the collected slice is visibly sorted later in the
// same function (the collect-keys-then-sort idiom), or if it carries a
// //lint:orderok annotation (on the offending call or the range line) for
// the cases where order genuinely does not matter — e.g. accumulating a
// commutative sum or a count.
var Canonorder = &Analyzer{
	Name: "canonorder",
	Doc:  "flag map iteration feeding ordered output (append/Write/hash) unless sorted before use (escape: //lint:orderok)",
	Run:  runCanonorder,
}

// orderedWriteMethods are method names whose call order becomes data:
// io.Writer, io.StringWriter, strings.Builder, bytes.Buffer, hash.Hash.
var orderedWriteMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
}

func runCanonorder(pass *Pass) error {
	reported := make(map[token.Pos]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok || !isMapType(pass, rs.X) {
					return true
				}
				checkMapRangeBody(pass, fd, rs, reported)
				return true
			})
		}
	}
	return nil
}

func isMapType(pass *Pass, x ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRangeBody flags order-sensitive operations inside one
// map-range body.
func checkMapRangeBody(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, reported map[token.Pos]bool) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || reported[call.Pos()] {
			return true
		}
		switch what := classifyOrderedCall(pass, call); what {
		case "":
			return true
		case "append":
			if target := appendTargetObj(pass, call); target != nil && sortedAfter(pass, fd, rs, target) {
				return true
			}
			if suppressedOrder(pass, call, rs) {
				return true
			}
			reported[call.Pos()] = true
			pass.Reportf(call.Pos(), "append inside map iteration produces non-deterministic order; sort the result before use or annotate //lint:orderok")
		default:
			if suppressedOrder(pass, call, rs) {
				return true
			}
			reported[call.Pos()] = true
			pass.Reportf(call.Pos(), "%s inside map iteration writes in non-deterministic order; iterate sorted keys or annotate //lint:orderok", what)
		}
		return true
	})
}

// classifyOrderedCall returns "append" for the append builtin, a
// human-readable name for ordered-write calls (x.Write, fmt.Fprintf),
// and "" for anything else.
func classifyOrderedCall(pass *Pass, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok && b.Name() == "append" {
			return "append"
		}
	case *ast.SelectorExpr:
		// A method named Write/WriteString/… on any receiver: io.Writer,
		// hash.Hash, strings.Builder — all turn call order into bytes.
		if obj, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				if orderedWriteMethods[obj.Name()] {
					return obj.Name()
				}
				return ""
			}
		}
		// fmt.Fprint* and io.WriteString write through their io.Writer
		// argument.
		if fn := pkgLevelFunc(pass, fun); fn != nil {
			if fn.Pkg().Path() == "fmt" && len(fn.Name()) > 6 && fn.Name()[:6] == "Fprint" {
				return "fmt." + fn.Name()
			}
			if fn.Pkg().Path() == "io" && fn.Name() == "WriteString" {
				return "io.WriteString"
			}
		}
	}
	return ""
}

// appendTargetObj resolves append's first argument to its object when it
// is a plain identifier, enabling the sorted-after check.
func appendTargetObj(pass *Pass, call *ast.CallExpr) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.Uses[id]
}

// sortedAfter reports whether target is passed to a sort/slices sorting
// function after the range statement, anywhere in the enclosing function
// — the canonical collect-then-sort idiom.
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, target types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn := pkgLevelFunc(pass, sel)
		if fn == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == target {
				found = true
			}
		}
		return true
	})
	return found
}

func suppressedOrder(pass *Pass, call *ast.CallExpr, rs *ast.RangeStmt) bool {
	return pass.SuppressedAt(call.Pos(), "orderok", false) ||
		pass.SuppressedAt(rs.Pos(), "orderok", false)
}
