package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// fileCreationFuncs are the os package functions that open a file for
// writing inside the function under inspection.
var fileCreationFuncs = map[string]bool{
	"Create":     true,
	"CreateTemp": true,
	"OpenFile":   true,
}

// Syncrename enforces the repo's durability protocol (DESIGN.md §8):
// any function that creates/writes a file and publishes it with
// os.Rename must Sync() the written file before the rename. Rename makes
// the name visible atomically, but without the preceding fsync a crash
// can leave a *visible, empty or torn* file — and the cellcache disk
// tier treats a visible cache entry as durable work it will never redo.
//
// A rename with no in-function file write (moving an existing file, e.g.
// quarantining a corrupt cache entry) is not flagged: there is nothing
// to sync. Genuinely sync-free publishes annotate //lint:nosync <reason>
// (reason required).
var Syncrename = &Analyzer{
	Name: "syncrename",
	Doc:  "require Sync() before os.Rename in functions that write the renamed file (escape: //lint:nosync <reason>)",
	Run:  runSyncrename,
}

func runSyncrename(pass *Pass) error {
	pass.ReportBadAnnotations("nosync")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkSyncBeforeRename(pass, fd)
			return false
		})
	}
	return nil
}

func checkSyncBeforeRename(pass *Pass, fd *ast.FuncDecl) {
	var renames []token.Pos
	creates := false
	var syncs []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if fn := pkgLevelFunc(pass, sel); fn != nil && fn.Pkg().Path() == "os" {
			switch {
			case fn.Name() == "Rename":
				renames = append(renames, call.Pos())
			case fileCreationFuncs[fn.Name()]:
				creates = true
			}
			return true
		}
		// A Sync method call on anything (os.File, a wrapper type that
		// forwards to one) counts as the barrier.
		if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && obj.Name() == "Sync" {
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				syncs = append(syncs, call.Pos())
			}
		}
		return true
	})
	if !creates {
		return
	}
	for _, rpos := range renames {
		if syncedBefore(syncs, rpos) {
			continue
		}
		if pass.SuppressedAt(rpos, "nosync", true) {
			continue
		}
		pass.Reportf(rpos, "os.Rename publishes a file this function wrote without a Sync(): fsync before rename so a crash cannot expose a torn entry, or annotate //lint:nosync <reason>")
	}
}

func syncedBefore(syncs []token.Pos, rename token.Pos) bool {
	for _, s := range syncs {
		if s < rename {
			return true
		}
	}
	return false
}
