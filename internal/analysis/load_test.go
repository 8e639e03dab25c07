package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLoadSkipsIgnoredFiles is the regression test for the loader's file
// filter: a package directory containing a `//go:build ignore` generator
// (package main, undefined symbols), an underscore-prefixed draft (does not
// parse), and a wrong-platform file (redeclares an exported symbol) must
// load cleanly with only the real file included.
func TestLoadSkipsIgnoredFiles(t *testing.T) {
	pkgs, _, err := Load(filepath.Join("testdata", "loadskip"), []string{"./..."})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Path != "lskip/pkg" {
		t.Errorf("path = %q, want %q", pkg.Path, "lskip/pkg")
	}
	if len(pkg.Files) != 1 {
		for _, f := range pkg.Files {
			t.Logf("  loaded: %s", pkg.Fset.Position(f.Package).Filename)
		}
		t.Fatalf("got %d files, want 1 (ok.go only)", len(pkg.Files))
	}
	if obj := pkg.Types.Scope().Lookup("Answer"); obj == nil {
		t.Errorf("Answer not in scope")
	}
}

// TestLoadPatternTrailingSlash pins that a directory pattern matches the way
// the go tool matches it: with or without a trailing slash.
func TestLoadPatternTrailingSlash(t *testing.T) {
	for _, pat := range []string{"./pkg", "./pkg/", "pkg/"} {
		pkgs, _, err := Load(filepath.Join("testdata", "loadskip"), []string{pat})
		if err != nil {
			t.Errorf("pattern %q: %v", pat, err)
			continue
		}
		if len(pkgs) != 1 || pkgs[0].Path != "lskip/pkg" {
			t.Errorf("pattern %q matched %d packages, want lskip/pkg", pat, len(pkgs))
		}
	}
}

// TestConstraintSatisfied pins the header scanner's corner cases.
func TestConstraintSatisfied(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"plain.go", "package p\n", true},
		{"ignored.go", "//go:build ignore\n\npackage main\n", false},
		{"plusbuild.go", "// +build ignore\n\npackage main\n", false},
		{"negated.go", "//go:build !ignore\n\npackage p\n", true},
		{"afterdoc.go", "// Package p does things.\npackage p\n\n//go:build ignore\n", true},
		{"blockcomment.go", "/*\nlicense text\n*/\n//go:build ignore\npackage main\n", false},
	}
	for _, tc := range cases {
		if got := constraintSatisfied(write(tc.name, tc.src)); got != tc.want {
			t.Errorf("%s: constraintSatisfied = %v, want %v", tc.name, got, tc.want)
		}
	}
}
