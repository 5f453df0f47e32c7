package analysis

import (
	"go/ast"
)

// allowedRandFuncs are the math/rand package-level functions that do not
// touch the global generator: they construct explicitly seeded state.
var allowedRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// math/rand/v2 constructors.
	"NewPCG":     true,
	"NewChaCha8": true,
}

// Seededrand forbids math/rand's global-state functions everywhere
// outside internal/rng.
//
// The global generator is process-wide mutable state: two subsystems
// drawing from it interleave, so a jitter call in one subsystem
// can perturb a sampling sequence elsewhere and no run is reproducible
// from its seed. Code that needs randomness constructs a seeded
// *rand.Rand (rand.New is allowed) or uses internal/rng's splittable
// streams. There is no annotation escape: the exemption is the
// internal/rng package itself, by configuration.
var Seededrand = &Analyzer{
	Name: "seededrand",
	Doc:  "forbid math/rand global-state functions outside internal/rng (use a seeded *rand.Rand or internal/rng)",
	Run:  runSeededrand,
}

func runSeededrand(pass *Pass) error {
	if PathInList(pass.Path, SeededRandExemptPackages) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := pkgLevelFunc(pass, sel)
			if fn == nil || allowedRandFuncs[fn.Name()] {
				return true
			}
			if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
				return true
			}
			pass.Reportf(sel.Pos(), "global math/rand state: rand.%s; use a seeded *rand.Rand or internal/rng", fn.Name())
			return true
		})
	}
	return nil
}
