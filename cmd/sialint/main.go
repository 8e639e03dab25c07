// Command sialint runs Sia's project-specific static-analysis suite over
// the module's packages. It is stdlib-only (go/ast, go/parser, go/types)
// and enforces invariants the compiler cannot:
//
//	exhaustive-switch  type switches over predicate.Expr, predicate.Predicate
//	                   and smt.Formula cover every AST node or declare a default
//	tribool-misuse     three-valued logic is never silently collapsed to bool
//	no-panic           library panics are package-prefixed dispatch panics only
//	err-wrap           sentinel errors are matched with errors.Is and wrapped
//	                   with %w across exported boundaries
//
// Request bounds and cancellation have no analyzer; tests that run the code
// check them: serve's TestRequestBounds and FuzzRequestBounds, smt's
// TestCancellationSweep and core's TestSynthesizeContextCancellationSweep.
//
// Usage:
//
//	sialint [-list] [packages]
//
// where packages are Go package patterns relative to the working directory
// ("./...", "./internal/...", "./cmd/sia"). With no arguments, ./... is
// assumed. Findings print as file:line:col: [analyzer] message. The exit
// status is 1 when any finding is reported and 2 on a load or usage error.
// -list prints the analyzer roster and exits.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sia/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit status surfaced for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sialint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: sialint [-list] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := analysis.DefaultConfig()
	analyzers := analysis.Analyzers(cfg)
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, all, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(stderr, "sialint: %v\n", err)
		return 2
	}

	findings := analysis.Run(pkgs, all, analyzers, cfg)
	cwd, _ := os.Getwd()
	for _, f := range findings {
		pos := f.Pos
		if cwd != "" {
			if rel, rerr := filepath.Rel(cwd, pos.Filename); rerr == nil && !filepath.IsAbs(rel) {
				pos.Filename = rel
			}
		}
		fmt.Fprintf(stdout, "%s: [%s] %s\n", pos, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "sialint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}
