// Package analysis is sialint's stdlib-only static-analysis framework. It
// loads and type-checks the module's packages with go/parser and go/types
// (no external dependencies), then runs project-specific analyzers that
// enforce invariants the Go compiler cannot: exhaustive dispatch over Sia's
// AST interfaces, disciplined use of three-valued logic, and panic hygiene
// and error wrapping in library code.
//
// The framework is deliberately small: an Analyzer is a named function over
// a type-checked Pass, and a Finding is a position plus a message. The
// cmd/sialint driver loads packages, runs every registered analyzer, and
// exits non-zero when any finding is reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Config points the analyzers at the project-specific types and packages
// they enforce invariants for. Tests retarget it at fixture modules; the
// driver uses DefaultConfig.
type Config struct {
	// SwitchInterfaces are the fully qualified interface types
	// ("pkgpath.Name") whose type switches must be exhaustive or carry an
	// explicit default clause.
	SwitchInterfaces []string

	// TriBoolType is the fully qualified three-valued logic type
	// ("pkgpath.Name"); TrueName/FalseName are the constant identifiers
	// whose comparisons collapse Unknown.
	TriBoolType string
	TrueName    string
	FalseName   string

	// TriBoolPkg is the one package path allowed to convert between the
	// tri-bool type and bool/integer types.
	TriBoolPkg string

	// LibraryPrefixes are package path prefixes subject to the
	// no-panic-in-library rule.
	LibraryPrefixes []string

	// ExtraPanicPrefixes are panic-message prefixes accepted in addition to
	// the package's own name (e.g. the module name for packages that back
	// the public API).
	ExtraPanicPrefixes []string

	// ErrWrapBoundaryPackages are the package paths whose exported
	// functions form the public error surface: a return of a freshly
	// constructed, unwrapped error (errors.New or fmt.Errorf without %w)
	// there can never match a sentinel with errors.Is.
	ErrWrapBoundaryPackages []string
}

// DefaultConfig returns the configuration for the Sia module itself.
func DefaultConfig() *Config {
	return &Config{
		SwitchInterfaces: []string{
			"sia/internal/predicate.Expr",
			"sia/internal/predicate.Predicate",
			"sia/internal/smt.Formula",
		},
		TriBoolType:        "sia/internal/predicate.TriBool",
		TrueName:           "True",
		FalseName:          "False",
		TriBoolPkg:         "sia/internal/predicate",
		LibraryPrefixes:    []string{"sia/internal/"},
		ExtraPanicPrefixes: []string{"sia"},
		ErrWrapBoundaryPackages: []string{
			"sia",
			"sia/internal/core",
			"sia/internal/cache",
		},
	}
}

// Finding is one analyzer report at a source position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Analyzer is a named check over one type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one package through one analyzer, with the whole loaded
// package graph available for whole-program facts (e.g. the implementation
// set of an interface).
type Pass struct {
	Cfg      *Config
	Pkg      *Package
	All      []*Package
	analyzer string
	sink     *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Finding{
		Analyzer: p.analyzer,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the sialint suite bound to cfg.
func Analyzers(cfg *Config) []*Analyzer {
	return []*Analyzer{
		ExhaustiveSwitch(cfg),
		TriBoolMisuse(cfg),
		NoPanicInLibrary(cfg),
		ErrWrap(cfg),
	}
}

// Run applies every analyzer to every package of pkgs, with all (Load's
// second result) as the package graph the analyzers consult, and returns
// the findings sorted by position. Findings are reported in pkgs only.
func Run(pkgs, all []*Package, analyzers []*Analyzer, cfg *Config) []Finding {
	var findings []Finding
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			pass := &Pass{Cfg: cfg, Pkg: pkg, All: all, analyzer: a.Name, sink: &findings}
			a.Run(pass)
		}
	}
	sortFindings(findings)
	return findings
}

// sortFindings orders findings by file, line, column, analyzer name, and
// finally message. The full key makes rendered output byte-identical across
// repeated invocations: an analyzer may report several findings at one
// position, and sort.Slice is not stable.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// lookupNamed resolves a fully qualified "pkgpath.Name" type across the
// loaded packages. It returns nil when the package or name is absent (the
// analyzer then has nothing to check, which keeps fixtures self-contained).
func lookupNamed(all []*Package, qualified string) *types.Named {
	dot := strings.LastIndex(qualified, ".")
	if dot < 0 {
		return nil
	}
	path, name := qualified[:dot], qualified[dot+1:]
	for _, pkg := range all {
		if pkg.Path != path || pkg.Types == nil {
			continue
		}
		obj := pkg.Types.Scope().Lookup(name)
		if obj == nil {
			return nil
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			return nil
		}
		return named
	}
	return nil
}

func stringIn(s string, set []string) bool {
	for _, x := range set {
		if s == x {
			return true
		}
	}
	return false
}

// commentedWith reports whether the line of pos, or the comment block ending
// on the line directly above it, carries an escape for marker: a comment line
// that starts with the marker and gives a non-empty reason after it
// ("// tribool: Unknown is handled above"). A comment that merely mentions
// the marker mid-sentence, or a bare "// tribool:", justifies nothing.
func (pkg *Package) commentedWith(pos token.Pos, marker string) bool {
	file := pkg.fileAt(pos)
	if file == nil {
		return false
	}
	line := pkg.Fset.Position(pos).Line
	for _, grp := range file.Comments {
		marked := false
		for _, c := range grp.List {
			if reason, ok := markerReason(c, marker); ok && reason != "" {
				marked = true
				break
			}
		}
		if !marked {
			continue
		}
		start := pkg.Fset.Position(grp.Pos()).Line
		end := pkg.Fset.Position(grp.End()).Line
		// Same line as the flagged expression, or the comment block that
		// ends on the line directly above it.
		if (start <= line && line <= end) || end == line-1 {
			return true
		}
	}
	return false
}

// markerReason returns the text after marker when the comment line c starts
// with it, and whether it does.
func markerReason(c *ast.Comment, marker string) (string, bool) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	if !strings.HasPrefix(text, marker) {
		return "", false
	}
	return strings.TrimSpace(text[len(marker):]), true
}

// fileAt returns the package file whose range covers pos.
func (pkg *Package) fileAt(pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}
