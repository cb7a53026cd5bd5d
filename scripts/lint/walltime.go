package main

// Analyzer "walltime": the packages that decide what gets merged must be
// pure functions of their inputs — the parallel pipeline's bit-identical
// contract depends on it. A wall-clock read (time.Now/Since/Until) or any
// math/rand use inside them introduces run-to-run variation the tests
// cannot reliably catch. Timing belongs in the orchestration layers
// (internal/core's Timings accumulators, internal/explore's session.go and
// explore.go, the experiment harnesses, the serve daemon), which are
// deliberately not on the pure list; seeded generation randomness belongs
// in internal/workload.
//
// Two weaker tiers extend coverage to the exploration and serving layers:
// pureFiles names the decision-core files of packages that otherwise may
// time themselves (the session's warm-state logic and the speculative
// evaluation wave must stay wall-clock free even though their package
// reports timings), and noRandDirs bans math/rand from the daemon and the
// whole exploration package, where randomness would silently break the
// warm/cold bit-identity contract while timestamps are legitimate.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
)

// purePackages are the internal packages that must stay free of wall-clock
// and randomness reads.
var purePackages = []string{
	"align", "analysis", "callgraph", "encode", "fingerprint", "global",
	"interp", "ir", "linearize", "lsh", "par", "passes", "profile",
	"simdb", "stats", "tti", "wire",
}

// pureFiles are single files held to the full purity rule inside packages
// that otherwise time themselves: the session's warm state and candidate
// caches, and the parallel evaluation wave, all decide what gets merged.
var pureFiles = []string{
	"internal/explore/warm.go",
	"internal/explore/cache.go",
	"internal/explore/parallel.go",
}

// noRandDirs are packages where wall-clock reads are legitimate (request
// timing, latency accounting) but math/rand would break determinism.
var noRandDirs = []string{
	"internal/explore", "internal/serve", "cmd/fmsa-serve",
}

// clockFuncs are the time-package functions that read the wall clock.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// lintWallTime checks one package directory.
func lintWallTime(dir string) []string {
	fset := token.NewFileSet()
	var bad []string
	for _, f := range parseDir(fset, dir) {
		bad = append(bad, lintRandImports(fset, f)...)
		bad = append(bad, lintClockCalls(fset, f)...)
	}
	return bad
}

// lintWallTimeFile applies the full purity rule to one file.
func lintWallTimeFile(fset *token.FileSet, path string) []string {
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		fatal(err)
	}
	return append(lintRandImports(fset, f), lintClockCalls(fset, f)...)
}

// lintNoRand applies only the randomness ban to one package directory.
func lintNoRand(root, dir string) []string {
	fset := token.NewFileSet()
	var bad []string
	for _, f := range parseDir(fset, filepath.Join(root, filepath.FromSlash(dir))) {
		bad = append(bad, lintRandImports(fset, f)...)
	}
	return bad
}

func lintRandImports(fset *token.FileSet, f *ast.File) []string {
	var bad []string
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if path == "math/rand" || path == "math/rand/v2" {
			bad = append(bad, fmt.Sprintf("%s: deterministic package imports %s",
				fset.Position(imp.Pos()), path))
		}
	}
	return bad
}

func lintClockCalls(fset *token.FileSet, f *ast.File) []string {
	var bad []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !clockFuncs[sel.Sel.Name] {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" {
			bad = append(bad, fmt.Sprintf("%s: wall-clock read time.%s in a deterministic package",
				fset.Position(call.Pos()), sel.Sel.Name))
		}
		return true
	})
	return bad
}
