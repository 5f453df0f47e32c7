package analysis

import (
	"go/ast"
	"go/types"
)

// forbiddenTimeFuncs are the package-level time functions that read or
// wait on the wall clock. Constructors like time.NewTimer/NewTicker are
// deliberately absent: they are how injected-clock seams and transport
// timeouts are built, and they do not leak wall time into simulation
// results by themselves.
var forbiddenTimeFuncs = map[string]bool{
	"Now":   true,
	"Sleep": true,
	"After": true,
	"Since": true,
	"Until": true,
	"Tick":  true,
}

// Detclock forbids wall-clock reads in determinism-critical packages.
//
// Every output of the simulation stack — Figure 14/15 CSVs, metrics CSVs,
// cache keys — must be a pure function of the seed and config; one
// time.Now() in a sim package breaks bit-reproducibility invisibly until
// a golden-CSV diff catches it. A wall-clock read that must exist
// (cellcache's stale-temp-file cutoff) carries a //lint:wallclock <reason>
// annotation, and an annotation without a reason is itself reported.
var Detclock = &Analyzer{
	Name: "detclock",
	Doc:  "forbid time.Now/Sleep/After/Since/Until/Tick in determinism-critical packages (escape: //lint:wallclock <reason>)",
	Run:  runDetclock,
}

func runDetclock(pass *Pass) error {
	if !PathInList(pass.Path, DeterminismCriticalPackages) {
		return nil
	}
	pass.ReportBadAnnotations("wallclock")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := pkgLevelFunc(pass, sel)
			if fn == nil || fn.Pkg().Path() != "time" || !forbiddenTimeFuncs[fn.Name()] {
				return true
			}
			if pass.SuppressedAt(sel.Pos(), "wallclock", true) {
				return true
			}
			pass.Reportf(sel.Pos(), "wall clock in determinism-critical package: time.%s; inject a clock or annotate //lint:wallclock <reason>", fn.Name())
			return true
		})
	}
	return nil
}

// pkgLevelFunc resolves a selector to the package-level function it
// names, or nil if it is anything else (method, field, variable, or a
// local symbol).
func pkgLevelFunc(pass *Pass, sel *ast.SelectorExpr) *types.Func {
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}
