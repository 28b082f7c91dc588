package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseSuppressions runs newSuppressions over one synthetic source file.
func parseSuppressions(t *testing.T, src string, known ...string) *suppressions {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing synthetic source: %v", err)
	}
	set := map[string]bool{}
	for _, k := range known {
		set[k] = true
	}
	return newSuppressions(fset, []*ast.File{f}, set)
}

// TestDirectiveEdgeCases is the table-driven grammar check for //lint:ignore
// and //lint:file-ignore: where a directive's suppression window lands,
// which malformed shapes are rejected, and how file-ignore scopes.
func TestDirectiveEdgeCases(t *testing.T) {
	const src = `package p

func a() {
	_ = 1 //lint:ignore floateq trailing directive, same line
	_ = 2
	//lint:ignore floateq standalone directive, next line
	_ = 3
	_ = 4
	//lint:ignore floateq,hotalloc multiple analyzers listed
	_ = 5
	//lint:ignore * wildcard suppresses every analyzer
	_ = 6
	//lint:ignore floateq
	_ = 7
	//lint:ignore unknownalyzer some reason
	_ = 8
	//lint:ignore
	_ = 9
}
`
	sup := parseSuppressions(t, src, "floateq", "hotalloc")

	diag := func(line int, analyzer string) Diagnostic {
		return Diagnostic{Pos: token.Position{Filename: "fixture.go", Line: line}, Analyzer: analyzer}
	}
	cases := []struct {
		name       string
		d          Diagnostic
		suppressed bool
	}{
		{"trailing directive suppresses its own line", diag(4, "floateq"), true},
		{"trailing directive also covers the next line", diag(5, "floateq"), true},
		{"standalone directive suppresses the line below", diag(7, "floateq"), true},
		{"suppression window is two lines, not three", diag(8, "floateq"), false},
		{"listed analyzer suppressed (first of two)", diag(10, "floateq"), true},
		{"listed analyzer suppressed (second of two)", diag(10, "hotalloc"), true},
		{"unlisted analyzer not suppressed", diag(10, "lbmono"), false},
		{"wildcard suppresses any analyzer", diag(12, "ctxcheck"), true},
		{"missing reason suppresses nothing", diag(14, "floateq"), false},
		{"unknown analyzer suppresses nothing", diag(16, "unknownalyzer"), false},
		{"bare directive suppresses nothing", diag(18, "floateq"), false},
	}
	for _, tc := range cases {
		if got := sup.suppressed(tc.d); got != tc.suppressed {
			t.Errorf("%s: suppressed(%s line %d) = %v, want %v", tc.name, tc.d.Analyzer, tc.d.Pos.Line, got, tc.suppressed)
		}
	}

	// The three malformed shapes must each be reported: missing reason,
	// unknown analyzer, missing everything.
	wantMalformed := []string{
		"need an analyzer list and a reason",
		`unknown analyzer "unknownalyzer"`,
		"missing analyzer list and reason",
	}
	if len(sup.malformed) != len(wantMalformed) {
		t.Fatalf("malformed = %d, want %d:\n%s", len(sup.malformed), len(wantMalformed), format(sup.malformed))
	}
	for i, want := range wantMalformed {
		if !strings.Contains(sup.malformed[i].Message, want) {
			t.Errorf("malformed[%d] = %q, want substring %q", i, sup.malformed[i].Message, want)
		}
	}
}

// TestFileIgnoreScoping checks that //lint:file-ignore covers every line of
// its own file for the listed analyzer only — and no other file.
func TestFileIgnoreScoping(t *testing.T) {
	const src = `package p

//lint:file-ignore floateq generated comparisons audited in review

func a() {
	_ = 1
}
`
	sup := parseSuppressions(t, src, "floateq", "hotalloc")
	in := func(line int, analyzer, file string) bool {
		return sup.suppressed(Diagnostic{Pos: token.Position{Filename: file, Line: line}, Analyzer: analyzer})
	}
	if !in(6, "floateq", "fixture.go") {
		t.Error("file-ignore did not suppress the listed analyzer in its own file")
	}
	if !in(1, "floateq", "fixture.go") {
		t.Error("file-ignore must cover lines above the directive too")
	}
	if in(6, "hotalloc", "fixture.go") {
		t.Error("file-ignore leaked to an unlisted analyzer")
	}
	if in(6, "floateq", "other.go") {
		t.Error("file-ignore leaked to another file")
	}
}
