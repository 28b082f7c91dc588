// Command lbkeoghvet runs this repository's custom static-analysis suite —
// the kernel and accounting invariant checks described in internal/lint —
// over the given package patterns.
//
// Usage:
//
//	lbkeoghvet [-only tallyescape,floateq] [-timing] [-bce auto|on|off] [-bce-update] [packages]
//
// With no packages, ./... is checked. The AST analyzers run through
// lint.Run; the bcebaseline check additionally shells out to the compiler
// (go build -gcflags=-d=ssa/check_bce) and diffs hot-path bounds-check
// counts against internal/lint/testdata/bce_baseline.txt — by default it
// runs whenever that baseline file exists. -bce-update regenerates the
// baseline and exits.
//
// Exit status is 0 when the suite is clean, 1 when it reports findings, and
// 2 on usage or load errors; a package that fails to list or type-check is
// always a hard exit 2 naming every failing package. It is wired into
// `make lint` and `make ci` alongside go vet.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"lbkeogh/internal/lint"
)

// baselineRelPath is where the committed BCE baseline lives, relative to the
// module root.
const baselineRelPath = "internal/lint/testdata/bce_baseline.txt"

func main() {
	var (
		only      = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		list      = flag.Bool("list", false, "list the analyzers and exit")
		timing    = flag.Bool("timing", false, "print per-analyzer finding counts and wall time to stderr")
		bceMode   = flag.String("bce", "auto", "bcebaseline check: auto (run when the baseline file exists), on, off")
		bceUpdate = flag.Bool("bce-update", false, "regenerate "+baselineRelPath+" from the current compiler output and exit")
	)
	flag.Parse()

	analyzers := lint.DefaultAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-12s %s\n", lint.BCEBaselineName,
			"diff hot-path bounds-check counts (go build -gcflags=-d=ssa/check_bce) against "+baselineRelPath)
		return
	}
	runBCE := true
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		runBCE = keep[lint.BCEBaselineName]
		delete(keep, lint.BCEBaselineName)
		var selected []*lint.Analyzer
		for _, a := range analyzers {
			if keep[a.Name] {
				selected = append(selected, a)
				delete(keep, a.Name)
			}
		}
		for name := range keep {
			fatalf("lbkeoghvet: unknown analyzer %q (use -list)", name)
		}
		analyzers = selected
		if runBCE && *bceMode == "auto" {
			*bceMode = "on" // -only bcebaseline is an explicit request
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatalf("lbkeoghvet: %v", err)
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		fatalf("lbkeoghvet: %v", err)
	}
	loader, err := lint.NewLoader(root, patterns...)
	if err != nil {
		fatalf("lbkeoghvet: %v", err)
	}
	pkgs, err := loader.Packages()
	if err != nil {
		fatalf("lbkeoghvet: %v", err)
	}

	baselinePath := filepath.Join(root, filepath.FromSlash(baselineRelPath))
	if *bceUpdate {
		if err := lint.WriteBCEBaseline(root, pkgs, baselinePath); err != nil {
			fatalf("lbkeoghvet: %v", err)
		}
		fmt.Printf("lbkeoghvet: wrote %s — commit this file\n", baselineRelPath)
		return
	}

	diags, stats := lint.RunWithStats(pkgs, analyzers)

	bceCount := 0
	switch *bceMode {
	case "off":
	case "on", "auto":
		if *bceMode == "auto" && !runBCE {
			break
		}
		if _, err := os.Stat(baselinePath); err != nil {
			if *bceMode == "on" {
				fatalf("lbkeoghvet: bcebaseline: %s missing; run `make bce-baseline` and commit it", baselineRelPath)
			}
			break // auto: no baseline yet, nothing to diff against
		}
		res, err := lint.RunBCE(root, pkgs, baselinePath)
		if err != nil {
			fatalf("lbkeoghvet: %v", err)
		}
		bceCount = len(res.Diagnostics)
		diags = append(diags, res.Diagnostics...)
		for _, s := range res.Stale {
			fmt.Fprintf(os.Stderr, "lbkeoghvet: note: %s\n", s)
		}
	default:
		fatalf("lbkeoghvet: -bce must be auto, on or off (got %q)", *bceMode)
	}

	for _, d := range diags {
		fmt.Println(d)
	}
	if *timing {
		for _, s := range stats {
			fmt.Fprintf(os.Stderr, "lbkeoghvet: %-12s %4d finding(s) %12v\n", s.Name, s.Findings, s.Elapsed.Round(10_000))
		}
		if *bceMode != "off" {
			fmt.Fprintf(os.Stderr, "lbkeoghvet: %-12s %4d finding(s)\n", lint.BCEBaselineName, bceCount)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
