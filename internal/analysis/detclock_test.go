package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"readretry/internal/analysis"
	"readretry/internal/analysis/analysistest"
)

func TestDetclock(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.Detclock, "internal/sim", "examples/timing")
}

// TestDetclockScopeIsConfiguration pins the scoping rule the examples
// exemption rides on: detclock applies to the determinism-critical
// packages and nothing else — examples/ and cmd/ are out by
// configuration, so a demo binary never needs an annotation to time
// itself with the wall clock.
func TestDetclockScopeIsConfiguration(t *testing.T) {
	critical := []string{
		"readretry/internal/sim",
		"readretry/internal/ssd",
		"readretry/internal/core",
		"readretry/internal/vth",
		"readretry/internal/nand",
		"readretry/internal/chip",
		"readretry/internal/ftl",
		"readretry/internal/experiments",
		"readretry/internal/experiments/cellcache",
		"readretry/internal/ssd/retrymetrics",
	}
	for _, path := range critical {
		if !analysis.PathInList(path, analysis.DeterminismCriticalPackages) {
			t.Errorf("%s must be determinism-critical", path)
		}
	}
	exempt := []string{
		"readretry",
		"readretry/cmd/repro",
		"readretry/cmd/reprolint",
		"readretry/internal/analysis",
	}
	for _, path := range exempt {
		if analysis.PathInList(path, analysis.DeterminismCriticalPackages) {
			t.Errorf("%s must not be determinism-critical", path)
		}
	}

	// Every example that exists in the tree, by enumeration, so adding
	// an example can never silently put it in scope.
	examples, err := os.ReadDir(filepath.Join("..", "..", "examples"))
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) == 0 {
		t.Fatal("no examples found")
	}
	for _, e := range examples {
		if !e.IsDir() {
			continue
		}
		path := "readretry/examples/" + e.Name()
		if analysis.PathInList(path, analysis.DeterminismCriticalPackages) {
			t.Errorf("example package %s must be exempt from detclock by configuration", path)
		}
	}
}
