package lint

// Golden tests in the style of golang.org/x/tools/go/analysis/analysistest:
// each fixture package under testdata/src/<analyzer>/ contains deliberately
// broken code annotated with trailing `// want "regexp"` comments, plus clean
// counterparts that must stay silent. A diagnostic is expected on exactly the
// lines carrying a want comment; any extra or missing finding fails the test.
// This is the acceptance check that breaking an invariant makes lbkeoghvet
// fail.

import (
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"sync"
	"testing"
)

var (
	loaderOnce sync.Once
	sharedRoot string
	sharedLdr  *Loader
	loaderErr  error
)

// moduleLoader builds one Loader over the whole module, shared across tests:
// the expensive part is the single `go list -export -test -deps` run, and its
// export data serves both the testdata fixtures and the self-check.
func moduleLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		sharedRoot, loaderErr = FindModuleRoot(".")
		if loaderErr != nil {
			return
		}
		sharedLdr, loaderErr = NewLoader(sharedRoot, "./...")
	})
	if loaderErr != nil {
		t.Fatalf("loading module: %v", loaderErr)
	}
	return sharedLdr
}

// loadFixture type-checks testdata/src/<name> as one package under the given
// import path. Fixtures may import real repository packages (e.g.
// lbkeogh/internal/stats); the shared loader's export data resolves them.
func loadFixture(t *testing.T, name, importPath string) *Package {
	t.Helper()
	l := moduleLoader(t)
	dir := filepath.Join(sharedRoot, "internal", "lint", "testdata", "src", name)
	pkg, err := l.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// wantString matches one Go string literal (quoted or backquoted) inside a
// `// want` comment.
var wantString = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// expectations collects the want regexps of a fixture, keyed by file and
// line. A want comment constrains the line it appears on.
func expectations(t *testing.T, pkg *Package) map[string]map[int][]*regexp.Regexp {
	t.Helper()
	want := map[string]map[int][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := cutWant(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lits := wantString.FindAllString(rest, -1)
				if len(lits) == 0 {
					t.Fatalf("%s:%d: want comment without a pattern", pos.Filename, pos.Line)
				}
				for _, lit := range lits {
					pat, err := strconv.Unquote(lit)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, lit, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					if want[pos.Filename] == nil {
						want[pos.Filename] = map[int][]*regexp.Regexp{}
					}
					want[pos.Filename][pos.Line] = append(want[pos.Filename][pos.Line], re)
				}
			}
		}
	}
	return want
}

func cutWant(comment string) (string, bool) {
	const marker = "// want "
	for i := 0; i+len(marker) <= len(comment); i++ {
		if comment[i:i+len(marker)] == marker {
			return comment[i+len(marker):], true
		}
	}
	return "", false
}

// runGolden runs the analyzers over the fixture and reconciles the findings
// against the want comments, both directions.
func runGolden(t *testing.T, pkg *Package, analyzers ...*Analyzer) {
	t.Helper()
	diags := Run([]*Package{pkg}, analyzers)
	want := expectations(t, pkg)
	for _, d := range diags {
		res := want[d.Pos.Filename][d.Pos.Line]
		matched := -1
		for i, re := range res {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		want[d.Pos.Filename][d.Pos.Line] = append(res[:matched], res[matched+1:]...)
	}
	for file, lines := range want {
		for line, res := range lines {
			for _, re := range res {
				t.Errorf("%s:%d: no diagnostic matched %q", file, line, re)
			}
		}
	}
}

func TestTallyEscapeGolden(t *testing.T) {
	runGolden(t, loadFixture(t, "tallyescape", "tallyescape_fixture"), TallyEscape())
}

func TestFloatEqGolden(t *testing.T) {
	// Run without the production package filter: the fixture stands in for
	// an admissibility-critical package.
	runGolden(t, loadFixture(t, "floateq", "floateq_fixture"), FloatEq())
}

func TestHotAllocGolden(t *testing.T) {
	runGolden(t, loadFixture(t, "hotalloc", "hotalloc_fixture"), HotAlloc())
}

func TestCtxCheckGolden(t *testing.T) {
	runGolden(t, loadFixture(t, "ctxcheck", "ctxcheck_fixture"), CtxCheck())
}

func TestLBMonoGolden(t *testing.T) {
	runGolden(t, loadFixture(t, "lbmono", "lbmono_fixture"), LBMono())
}

// TestDirectiveGrammar checks the //lint:ignore grammar end to end on the
// directive fixture: a well-formed directive suppresses its finding, while a
// directive missing its reason or naming an analyzer the suite does not have
// is itself reported (as the pseudo-analyzer "directive") and suppresses
// nothing. The run selects floateq alone, as lbkeoghvet -only does, so the
// fixture's directive naming hotalloc must still count as well formed.
func TestDirectiveGrammar(t *testing.T) {
	pkg := loadFixture(t, "directive", "directive_fixture")
	diags := Run([]*Package{pkg}, []*Analyzer{FloatEq()})
	byAnalyzer := map[string]int{}
	var malformed []string
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
		if d.Analyzer == "directive" {
			malformed = append(malformed, d.Message)
		}
	}
	wantMalformed := []string{
		"malformed //lint directive: need an analyzer list and a reason",
		`malformed //lint directive: unknown analyzer "nosuchanalyzer"`,
		`malformed //lint directive: unknown analyzer "lockorder"`,
	}
	if !slices.Equal(malformed, wantMalformed) {
		t.Errorf("malformed-directive findings = %q, want %q", malformed, wantMalformed)
	}
	// The two float comparisons under malformed directives stay flagged; the
	// one under the valid directive is suppressed.
	if byAnalyzer["floateq"] != 2 {
		t.Errorf("floateq findings = %d, want 2 (valid directive must suppress exactly one); diags:\n%s", byAnalyzer["floateq"], format(diags))
	}
}

func format(diags []Diagnostic) string {
	out := ""
	for _, d := range diags {
		out += "\t" + d.String() + "\n"
	}
	return out
}
