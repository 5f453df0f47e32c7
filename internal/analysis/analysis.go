// Package analysis is the repo's static-analysis suite: six analyzers that
// machine-check the invariants every figure in this reproduction stands on
// — deterministic simulation (no wall clock, no global RNG, no map-order
// leaks into canonical output), crash durability (fsync before rename),
// and locking discipline (guarded-by field comments) — plus the minimal
// framework they run on.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, diagnostics, testdata/src fixtures with "// want"
// expectations) but is built purely on the standard library: packages are
// enumerated with `go list -export -json`, parsed with go/parser, and
// type-checked with go/types against the compiler's export data, so the
// suite needs no module dependencies and runs offline. cmd/reprolint is
// the multichecker binary; scripts/lint.sh and CI run it over ./... and
// fail on any diagnostic. See DESIGN.md §10 for the analyzer ↔ invariant
// table and the annotation escape hatches.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check. Run inspects a single
// type-checked package through the Pass and reports findings; analyzers
// are stateless and safe to run over many packages.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and annotation docs.
	Name string
	// Doc is the one-line invariant statement shown by `reprolint -help`.
	Doc string
	// Run performs the check. A returned error is an analyzer failure
	// (broken input), not a finding; findings go through Pass.Reportf.
	Run func(*Pass) error
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Pos locates the finding.
	Pos token.Position
	// Message states the violated invariant and the fix or escape hatch.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Path is the package's import path as analyzed. Scoped analyzers
	// (detclock, nofloateq) match it against the lists in config.go.
	Path string
	// Fset maps token positions for Files.
	Fset *token.FileSet
	// Files are the package's parsed non-test sources, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo records type and object resolution for Files.
	TypesInfo *types.Info

	annots map[string][]Annotation // file name → line-ordered annotations
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes one analyzer over the package and returns its findings in
// position order.
func (pkg *Package) Run(a *Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Path:      pkg.ImportPath,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		annots:    scanAnnotations(pkg.Fset, pkg.Files),
		report:    func(d Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, nil
}

// All returns the full suite in the order diagnostics should be grouped.
func All() []*Analyzer {
	return []*Analyzer{Detclock, Seededrand, Canonorder, Guardedby, Syncrename, Nofloateq}
}
