package analysis

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis.
type Package struct {
	Path  string // import path
	Name  string // package name
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files, sorted by file name
	Types *types.Package
	Info  *types.Info
}

// Load parses and type-checks the packages of the module rooted at or above
// dir that match the given patterns ("./...", "./internal/...", "./cmd/sia",
// or bare import paths). Test files are not loaded: sialint checks library
// and binary code, and test helpers are free to panic. Only the standard
// library may be imported besides the module's own packages, which preserves
// — and relies on — the repo's zero-dependency property.
//
// Besides the matched packages, Load returns in all every package it
// type-checked: the matched ones and, transitively, the module packages they
// import. Analyzers resolve the types they enforce (Config.TriBoolType, the
// SwitchInterfaces) and whole-program facts over all, so a run over a subset
// reports what a ./... run reports in that subset: a package can only hold a
// value of such a type if it depends on the type's package, which all then
// includes.
func Load(dir string, patterns []string) (pkgs, all []*Package, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, nil, err
	}
	l := &loader{
		fset:    token.NewFileSet(),
		root:    root,
		modPath: modPath,
		dirs:    map[string]string{},
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
	if err := l.scanDirs(); err != nil {
		return nil, nil, err
	}
	var matched []string
	for path, pdir := range l.dirs {
		if matchesAny(abs, pdir, path, patterns) {
			matched = append(matched, path)
		}
	}
	if len(matched) == 0 {
		return nil, nil, fmt.Errorf("analysis: no packages match %v", patterns)
	}
	sort.Strings(matched)
	for _, path := range matched {
		pkg, err := l.load(path)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	for _, pkg := range l.pkgs {
		all = append(all, pkg)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Path < all[j].Path })
	return pkgs, all, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		gomod := filepath.Join(d, "go.mod")
		if _, statErr := os.Stat(gomod); statErr == nil {
			path, perr := readModulePath(gomod)
			if perr != nil {
				return "", "", perr
			}
			return d, path, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found at or above %s", dir)
		}
		d = parent
	}
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "module" {
			return strings.Trim(fields[1], `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// matchesAny reports whether the package at pdir (import path ipath) matches
// any pattern, resolved relative to the invocation directory base.
func matchesAny(base, pdir, ipath string, patterns []string) bool {
	rel, err := filepath.Rel(base, pdir)
	if err != nil || strings.HasPrefix(rel, "..") {
		rel = ""
	}
	rel = filepath.ToSlash(rel)
	for _, pat := range patterns {
		// Clean as the go tool does: "./internal/engine/" names the same
		// package as "./internal/engine".
		pat = path.Clean(filepath.ToSlash(pat))
		switch {
		case pat == "..." && rel != "":
			return true
		case rel == "." && pat == ".":
			return true
		case strings.HasSuffix(pat, "/..."):
			prefix := strings.TrimSuffix(pat, "/...")
			if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
				return true
			}
		case pat == rel && rel != "":
			return true
		case pat == ipath:
			return true
		}
	}
	return false
}

type loader struct {
	fset    *token.FileSet
	root    string            // module root directory
	modPath string            // module path
	dirs    map[string]string // import path -> absolute directory
	pkgs    map[string]*Package
	loading map[string]bool // cycle detection
	std     types.Importer  // stdlib importer, created lazily
	stdSrc  types.Importer  // source-based fallback
}

// scanDirs enumerates the module's package directories, skipping testdata,
// vendor, and hidden directories.
func (l *loader) scanDirs() error {
	return filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if goFilesIn(path) {
			rel, rerr := filepath.Rel(l.root, path)
			if rerr != nil {
				return rerr
			}
			ipath := l.modPath
			if rel != "." {
				ipath = l.modPath + "/" + filepath.ToSlash(rel)
			}
			l.dirs[ipath] = path
		}
		return nil
	})
}

// goFilesIn reports whether dir directly contains at least one non-test Go
// file that the loader would include.
func goFilesIn(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && includeGoFile(dir, e.Name()) {
			return true
		}
	}
	return false
}

// includeGoFile reports whether name is a Go file the loader should parse
// and type-check as part of the package in dir. Mirroring the go tool, it
// excludes test files, files whose name starts with "_" or "." (editor
// backups, scratch drafts), and files carrying a build constraint the
// current platform does not satisfy — most importantly `//go:build ignore`
// on generator programs, which would otherwise break type-checking of the
// surrounding package with a spurious "package main" clash.
func includeGoFile(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	if strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
		return false
	}
	return constraintSatisfied(filepath.Join(dir, name))
}

// constraintSatisfied reads the build constraints in the file header (the
// lines before the package clause) and evaluates them against the running
// platform. Unreadable files pass — the parser will produce the real error.
func constraintSatisfied(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return true
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	inBlockComment := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlockComment {
			if idx := strings.Index(line, "*/"); idx >= 0 {
				inBlockComment = false
			}
			continue
		}
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "/*"):
			if !strings.Contains(line[2:], "*/") {
				inBlockComment = true
			}
			continue
		case strings.HasPrefix(line, "//"):
			if constraint.IsGoBuild(line) || constraint.IsPlusBuild(line) {
				expr, perr := constraint.Parse(line)
				if perr == nil && !expr.Eval(buildTagSatisfied) {
					return false
				}
			}
			continue
		default:
			// First non-comment line is the package clause: constraints must
			// precede it, so the scan is done.
			return true
		}
	}
	return true
}

// buildTagSatisfied is the tag evaluator for constraintSatisfied: the
// running OS/arch and compiler are true, any released language version is
// true, everything else — including the conventional "ignore" tag — is
// false.
func buildTagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc", "unix":
		return true
	}
	return strings.HasPrefix(tag, "go1.")
}

// load parses and type-checks one module package (memoized).
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, ok := l.dirs[path]
	if !ok {
		return nil, fmt.Errorf("analysis: package %s not found in module %s", path, l.modPath)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && includeGoFile(dir, e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, perr := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return nil, perr
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:  path,
		Name:  files[0].Name.Name,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer: module-internal packages are
// type-checked from source, everything else resolves through the standard
// library importers.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if l.std == nil {
		l.std = importer.Default()
	}
	pkg, err := l.std.Import(path)
	if err == nil {
		return pkg, nil
	}
	// The gc importer needs export data, which some toolchain installs
	// lack; fall back to type-checking the standard library from source.
	if l.stdSrc == nil {
		l.stdSrc = importer.ForCompiler(l.fset, "source", nil)
	}
	return l.stdSrc.Import(path)
}
