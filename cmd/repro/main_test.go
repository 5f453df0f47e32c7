package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"testing"
)

func TestCheckOnly(t *testing.T) {
	saved := *only
	t.Cleanup(func() { *only = saved })
	for _, c := range []struct {
		sel string
		ok  bool
	}{
		{"all", true},
		{"ALL", true},
		{"table1", true},
		{"fig6", true},
		{"FIG14", true},
		{"Fig15", true},
		{"ext", true},
		{"fig99", false},
		{"fig1", false},
		{"fig14 ", false},
		{"", false},
	} {
		*only = c.sel
		if err := checkOnly(); (err == nil) != c.ok {
			t.Errorf("-only %q: err = %v, want ok=%v", c.sel, err, c.ok)
		}
	}
}

// TestExperimentNamesMatchMain keeps experimentNames equal to the names
// main passes to want, so the help string and the -only check cannot drift
// from what actually runs.
func TestExperimentNamesMatchMain(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var used []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "want" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(used, name) {
				used = append(used, name)
			}
		}
		return true
	})
	got := slices.Clone(experimentNames)
	slices.Sort(got)
	slices.Sort(used)
	if !slices.Equal(got, used) {
		t.Errorf("experimentNames %v, main selects %v", got, used)
	}
}
