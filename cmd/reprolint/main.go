// Command reprolint is the repo's invariant checker: it runs the
// internal/analysis suite (detclock, seededrand, canonorder, guardedby,
// syncrename, nofloateq) over Go packages and fails on any finding.
//
// Standalone mode loads packages itself:
//
//	reprolint ./...            # what scripts/lint.sh and CI run
//	reprolint ./internal/sim
//
// It is also go vet -vettool compatible: when invoked by the go command
// with a *.cfg unit file (and for the -V=full version handshake) it
// speaks the vet unit-checker protocol, so
//
//	go vet -vettool=$(command -v reprolint) ./...
//
// works and caches like any other vet tool. Diagnostics print as
// file:line:col: message [analyzer]; exit status 1 means findings, 2
// means the tool itself failed. See DESIGN.md §10 for the invariant
// table and annotation escape hatches.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"readretry/internal/analysis"
)

func main() {
	// The go command probes `tool -V=full` for cache keying and hands
	// unit work over as a single *.cfg argument; both arrive before any
	// of our own flags, so dispatch on the raw argv first.
	if len(os.Args) == 2 && (os.Args[1] == "-V=full" || os.Args[1] == "-V") {
		fmt.Printf("reprolint version 1 suite=%s\n", suiteID())
		return
	}
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		// The go command asks which analyzer flags the tool supports so
		// it can forward user selections; the suite always runs whole.
		fmt.Println("[]")
		return
	}
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(unitcheck(os.Args[1]))
	}

	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: reprolint [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprolint:", err)
		os.Exit(2)
	}
	found := 0
	for _, pkg := range pkgs {
		for _, a := range analysis.All() {
			diags, err := pkg.Run(a)
			if err != nil {
				fmt.Fprintln(os.Stderr, "reprolint:", err)
				os.Exit(2)
			}
			for _, d := range diags {
				fmt.Println(d)
				found++
			}
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "reprolint: %d finding(s)\n", found)
		os.Exit(1)
	}
}

// suiteID folds the analyzer names and docs into the version string so
// the go command's vet cache invalidates when the suite changes shape.
func suiteID() string {
	var b strings.Builder
	for _, a := range analysis.All() {
		fmt.Fprintf(&b, "%s/", a.Name)
	}
	return strings.TrimSuffix(b.String(), "/")
}
