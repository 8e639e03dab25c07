package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runOne runs a single analyzer over ./... from a directory under testdata/
// — a fixture module, or a package inside one for a subset run — and
// returns its findings.
func runOne(t *testing.T, fixture string, cfg *Config, a *Analyzer) []Finding {
	t.Helper()
	pkgs, all, err := Load(filepath.Join("testdata", fixture), []string{"./..."})
	if err != nil {
		t.Fatalf("load %s: %v", fixture, err)
	}
	return Run(pkgs, all, []*Analyzer{a}, cfg)
}

// wantFindings asserts the exact count and that each expected substring
// appears in some finding message.
func wantFindings(t *testing.T, got []Finding, n int, substrs ...string) {
	t.Helper()
	if len(got) != n {
		for _, f := range got {
			t.Logf("  %s: [%s] %s", f.Pos, f.Analyzer, f.Message)
		}
		t.Fatalf("got %d findings, want %d", len(got), n)
	}
	for _, want := range substrs {
		found := false
		for _, f := range got {
			if strings.Contains(f.Message, want) {
				found = true
				break
			}
		}
		if !found {
			for _, f := range got {
				t.Logf("  %s: [%s] %s", f.Pos, f.Analyzer, f.Message)
			}
			t.Errorf("no finding mentions %q", want)
		}
	}
}

func triCfg(mod string) *Config {
	return &Config{
		TriBoolType: mod + "/tri.TriBool",
		TrueName:    "True",
		FalseName:   "False",
		TriBoolPkg:  mod + "/tri",
	}
}

// fixtureCases is the whole fixture suite: each analyzer against a good
// module (zero findings) and a bad one (exact count plus message
// substrings), with the Config retargeted at the fixture's module path.
var fixtureCases = []struct {
	fixture  string
	analyzer func(*Config) *Analyzer
	cfg      *Config
	want     int
	substrs  []string
}{
	{"exhaustive_good", ExhaustiveSwitch, &Config{SwitchInterfaces: []string{"exgood.Node"}}, 0, nil},
	{"exhaustive_bad", ExhaustiveSwitch, &Config{SwitchInterfaces: []string{"exbad.Node"}}, 1, []string{"*exbad.Leaf"}},
	{"tribool_good", TriBoolMisuse, triCfg("tbgood"), 0, nil},
	// 4 misuses + a mid-sentence "tribool:" + a bare "// tribool:", neither
	// of which is an escape.
	{"tribool_bad", TriBoolMisuse, triCfg("tbbad"), 6, []string{"Unknown", "conversion"}},
	// The same findings from a subset run over the use package alone: tri,
	// which declares the type, is matched by no pattern but still loaded.
	{"tribool_bad/use", TriBoolMisuse, triCfg("tbbad"), 6, []string{"Unknown", "conversion"}},
	{"nopanic_good", NoPanicInLibrary, &Config{LibraryPrefixes: []string{"npgood/internal/"}}, 0, nil},
	{"nopanic_bad", NoPanicInLibrary, &Config{LibraryPrefixes: []string{"npbad/internal/"}}, 2, []string{"panic"}},
	{"errwrap_good", ErrWrap, &Config{ErrWrapBoundaryPackages: []string{"ewgood/api"}}, 0, nil},
	{"errwrap_bad", ErrWrap, &Config{ErrWrapBoundaryPackages: []string{"ewbad/api"}}, 5, []string{"errors.Is", "%w", "errors.New"}},
}

func TestFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.fixture, func(t *testing.T) {
			a := tc.analyzer(tc.cfg)
			got := runOne(t, tc.fixture, tc.cfg, a)
			wantFindings(t, got, tc.want, tc.substrs...)
			for _, f := range got {
				if f.Analyzer != a.Name {
					t.Errorf("finding from %q, want %s", f.Analyzer, a.Name)
				}
			}
		})
	}
}

// TestNoOrphanFixtures fails when a directory under testdata/ is exercised
// by no test: every entry is a fixtureCases row or the module the loader
// tests load by name.
func TestNoOrphanFixtures(t *testing.T) {
	used := map[string]bool{"loadskip": true}
	for _, tc := range fixtureCases {
		used[tc.fixture] = true
	}
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !used[e.Name()] {
			t.Errorf("testdata/%s is loaded by no test", e.Name())
		}
	}
}

// TestRepoIsClean runs every analyzer with the default configuration over
// the repository itself — the same invocation cmd/sialint performs — and
// expects zero findings. A regression here means new code violated one of
// the enforced invariants.
func TestRepoIsClean(t *testing.T) {
	pkgs, all, err := Load(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	cfg := DefaultConfig()
	got := Run(pkgs, all, Analyzers(cfg), cfg)
	for _, f := range got {
		t.Errorf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
	}
}
