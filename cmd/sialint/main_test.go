package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestListIncludesNewAnalyzers pins the roster: -list prints exactly the
// registered analyzers, one per line, in suite order.
func TestListIncludesNewAnalyzers(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-list"}, &out, &errs); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errs.String())
	}
	want := []string{"exhaustive-switch", "tribool-misuse", "no-panic", "err-wrap"}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d analyzers, want %d:\n%s", len(lines), len(want), out.String())
	}
	for i, name := range want {
		if got := strings.Fields(lines[i])[0]; got != name {
			t.Errorf("-list line %d names %s, want %s", i+1, got, name)
		}
	}
}

// inRepoRoot runs the CLI from the module root, the way make lint and CI do.
func inRepoRoot(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out, errs bytes.Buffer
	code = run(args, &out, &errs)
	return code, out.String(), errs.String()
}

// TestRepoCleanViaCLI runs the tool over the whole module and expects no
// findings. This doubles as the regression test that loading the repo
// (which contains testdata mini-modules and build-tag-excluded files) does
// not error.
func TestRepoCleanViaCLI(t *testing.T) {
	code, stdout, stderr := inRepoRoot(t, "./...")
	if code != 0 || stdout != "" {
		t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, stderr, stdout)
	}
}

// TestTrailingSlashPattern pins that a directory pattern with a trailing
// slash names the same package as one without, as it does for the go tool.
func TestTrailingSlashPattern(t *testing.T) {
	code, stdout, stderr := inRepoRoot(t, "./internal/engine/")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s\nstdout: %s", code, stderr, stdout)
	}
}
