package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Analyzer is one named invariant check. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer closely enough that the checks
// could be ported to the upstream framework verbatim if the dependency ever
// becomes available; this repository vendors no third-party code, so the
// driver below is a minimal stdlib-only reimplementation.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:ignore
	// directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Applies filters packages by import path; nil means every package.
	// In-package test files are analyzed under the package's own path, and
	// external test packages under "<path>_test", so filters should match
	// with the "_test" suffix stripped (see pkgPathIn).
	Applies func(pkgPath string) bool
	// Prepare, if non-nil, runs once over the whole package set before any
	// per-package pass, so an analyzer can build module-wide state — e.g. a
	// cross-package table of annotated functions. Per-package passes only see
	// dependency packages through export data (no ASTs, no comments), so
	// directive-driven cross-package checks need this hook.
	Prepare func(pkgs []*Package)
	// Run reports findings on one type-checked package via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Run applies every analyzer to every package (subject to each analyzer's
// Applies filter), drops findings suppressed by //lint:ignore directives,
// and returns the rest sorted by position. Malformed directives are reported
// as findings of the pseudo-analyzer "directive"; a directive may name any
// analyzer of the suite (DefaultAnalyzers), not only the ones being run.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunWithStats(pkgs, analyzers)
	return diags
}

// AnalyzerStats is one analyzer's cost and yield over a RunWithStats call.
type AnalyzerStats struct {
	Name     string
	Findings int // post-suppression diagnostics attributed to the analyzer
	Elapsed  time.Duration
}

// RunWithStats is Run plus per-analyzer accounting: wall time (Prepare
// included) and surviving finding counts, in suite order, with a trailing
// "directive" entry when malformed //lint directives were reported.
func RunWithStats(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerStats) {
	elapsed := map[string]time.Duration{}
	findings := map[string]int{}
	for _, a := range analyzers {
		if a.Prepare != nil {
			start := time.Now()
			a.Prepare(pkgs)
			elapsed[a.Name] += time.Since(start)
		}
	}
	known := analyzerNames(append(DefaultAnalyzers(), analyzers...))
	var diags []Diagnostic
	for _, pkg := range pkgs {
		sup := newSuppressions(pkg.Fset, pkg.Files, known)
		diags = append(diags, sup.malformed...)
		findings["directive"] += len(sup.malformed)
		var raw []Diagnostic
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(strings.TrimSuffix(pkg.ImportPath, "_test")) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &raw,
			}
			start := time.Now()
			a.Run(pass)
			elapsed[a.Name] += time.Since(start)
		}
		for _, d := range raw {
			if !sup.suppressed(d) {
				diags = append(diags, d)
				findings[d.Analyzer]++
			}
		}
	}
	stats := make([]AnalyzerStats, 0, len(analyzers)+1)
	for _, a := range analyzers {
		stats = append(stats, AnalyzerStats{Name: a.Name, Findings: findings[a.Name], Elapsed: elapsed[a.Name]})
	}
	if findings["directive"] > 0 {
		stats = append(stats, AnalyzerStats{Name: "directive", Findings: findings["directive"]})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, stats
}

func analyzerNames(analyzers []*Analyzer) map[string]bool {
	names := map[string]bool{}
	for _, a := range analyzers {
		names[a.Name] = true
	}
	return names
}

// suppressions indexes the //lint:ignore and //lint:file-ignore directives
// of one package.
//
// Syntax, following the staticcheck convention:
//
//	//lint:ignore <analyzers> <reason>       suppress on this and the next line
//	//lint:file-ignore <analyzers> <reason>  suppress in the whole file
//
// where <analyzers> is a comma-separated list of analyzer names or "*", and
// <reason> is mandatory free text explaining why the finding is acceptable.
type suppressions struct {
	// lines maps filename -> line -> analyzer names suppressed ("*" = all).
	lines map[string]map[int]map[string]bool
	// files maps filename -> analyzer names suppressed file-wide.
	files     map[string]map[string]bool
	malformed []Diagnostic
}

func newSuppressions(fset *token.FileSet, files []*ast.File, known map[string]bool) *suppressions {
	s := &suppressions{
		lines: map[string]map[int]map[string]bool{},
		files: map[string]map[string]bool{},
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, fileWide := strings.CutPrefix(c.Text, "//lint:file-ignore ")
				if !fileWide {
					var ok bool
					text, ok = strings.CutPrefix(c.Text, "//lint:ignore ")
					if !ok {
						if strings.HasPrefix(c.Text, "//lint:ignore") || strings.HasPrefix(c.Text, "//lint:file-ignore") {
							s.malformed = append(s.malformed, malformedDirective(fset, c, "missing analyzer list and reason"))
						}
						continue
					}
				}
				fields := strings.Fields(text)
				if len(fields) < 2 {
					s.malformed = append(s.malformed, malformedDirective(fset, c, "need an analyzer list and a reason"))
					continue
				}
				names := map[string]bool{}
				bad := false
				for _, name := range strings.Split(fields[0], ",") {
					if name != "*" && !known[name] {
						s.malformed = append(s.malformed, malformedDirective(fset, c, fmt.Sprintf("unknown analyzer %q", name)))
						bad = true
						break
					}
					names[name] = true
				}
				if bad {
					continue
				}
				pos := fset.Position(c.Pos())
				if fileWide {
					merge(s.files, pos.Filename, names)
					continue
				}
				byLine := s.lines[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					s.lines[pos.Filename] = byLine
				}
				// A trailing directive suppresses its own line; a standalone
				// directive line suppresses the line below. Covering both is
				// harmless and keeps the matcher position-format agnostic.
				mergeLine(byLine, pos.Line, names)
				mergeLine(byLine, pos.Line+1, names)
			}
		}
	}
	return s
}

func malformedDirective(fset *token.FileSet, c *ast.Comment, why string) Diagnostic {
	return Diagnostic{
		Pos:      fset.Position(c.Pos()),
		Analyzer: "directive",
		Message:  "malformed //lint directive: " + why,
	}
}

func merge(m map[string]map[string]bool, key string, names map[string]bool) {
	if m[key] == nil {
		m[key] = map[string]bool{}
	}
	for n := range names {
		m[key][n] = true
	}
}

func mergeLine(m map[int]map[string]bool, line int, names map[string]bool) {
	if m[line] == nil {
		m[line] = map[string]bool{}
	}
	for n := range names {
		m[line][n] = true
	}
}

func (s *suppressions) suppressed(d Diagnostic) bool {
	if set := s.files[d.Pos.Filename]; set["*"] || set[d.Analyzer] {
		return true
	}
	set := s.lines[d.Pos.Filename][d.Pos.Line]
	return set["*"] || set[d.Analyzer]
}

// pkgPathIn returns an Applies filter matching exactly the given import
// paths.
func pkgPathIn(paths ...string) func(string) bool {
	set := map[string]bool{}
	for _, p := range paths {
		set[p] = true
	}
	return func(path string) bool { return set[path] }
}

// funcHasDirective reports whether the function's doc comment contains the
// given //-directive line (e.g. "//lbkeogh:hotpath").
func funcHasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// namedTypeKey renders a named (possibly pointer-wrapped) type as
// "pkgpath.Name", or "" for anything else.
func namedTypeKey(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// typeContains reports whether t contains the named type key anywhere in its
// structure (through pointers, slices, arrays, maps and channels). Struct
// and interface internals are not descended into: a struct holding another
// struct is that type's own contract.
func typeContains(t types.Type, key string) bool {
	seen := map[types.Type]bool{}
	var walk func(types.Type) bool
	walk = func(t types.Type) bool {
		if seen[t] {
			return false
		}
		seen[t] = true
		if namedTypeKey(t) == key {
			return true
		}
		switch u := t.(type) {
		case *types.Pointer:
			return walk(u.Elem())
		case *types.Slice:
			return walk(u.Elem())
		case *types.Array:
			return walk(u.Elem())
		case *types.Map:
			return walk(u.Key()) || walk(u.Elem())
		case *types.Chan:
			return walk(u.Elem())
		}
		return false
	}
	return walk(t)
}
