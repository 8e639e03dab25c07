package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"sia/internal/analysis"
)

// TestEmitIsAnnotatedHotPath ties the AllocsPerRun tests above to the
// static allocation budget: the zero-alloc guarantees they measure are only
// enforced repo-wide if Emit actually carries the // sia:hotpath marker the
// alloc-budget analyzer keys on.
func TestEmitIsAnnotatedHotPath(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "trace.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse trace.go: %v", err)
	}
	found := false
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "Emit" || fd.Recv == nil {
			continue
		}
		found = true
		if fd.Doc == nil || !strings.Contains(fd.Doc.Text(), "sia:hotpath") {
			t.Errorf("Tracer.Emit lacks the // sia:hotpath annotation; the zero-alloc tests are not backed by static analysis")
		}
	}
	if !found {
		t.Fatal("no Tracer.Emit declaration found in trace.go")
	}
}

// TestObsPassesAllocBudget runs the alloc-budget analyzer over this package
// so a new allocation sneaking into Emit's cone fails here, next to the
// AllocsPerRun measurements, not only in the repo-wide lint.
func TestObsPassesAllocBudget(t *testing.T) {
	cfg := &analysis.Config{}
	pkgs, all, err := analysis.Load("../..", []string{"./internal/obs"})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	findings := analysis.Run(pkgs, all, []*analysis.Analyzer{analysis.AllocBudget(cfg)}, cfg)
	for _, f := range findings {
		t.Error(f.String())
	}
}
