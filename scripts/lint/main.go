// Command lint enforces the repository's concurrency invariants that the
// compiler cannot check. It is stdlib-only (go/ast + go/parser, no type
// information) and is wired into scripts/check.sh.
//
// Invariant 1 — use-list confinement (internal/ir): the use lists behind
// the IR's def-use chains may be MUTATED only inside ir/value.go and
// ir/func.go. Function and global use lists are shared across goroutines
// during the parallel evaluation wave and are guarded by sharedUseMu in
// func.go; a mutation added anywhere else would bypass the lock. Reads of
// .uses elsewhere in the package are fine (block/inst/param lists are
// goroutine-private).
//
// Invariant 2 — pool pairing (internal/align, internal/linearize,
// internal/encode, internal/core, internal/wire): every
// buffer obtained from a sync.Pool getter must, within the same function,
// either be released to the matching putter or be handed off — by returning
// it to the caller (who then inherits the obligation — e.g. getBitScratch
// returns pooled scratch that nwBitCodes releases with putBitScratch), or by
// assigning it to a struct field (the owning object's lifecycle inherits
// the obligation — e.g. generate parks its mergerScratch in Result.scratch,
// which Discard and Commit release). Getter
// and putter functions are derived from the AST: a function that calls
// <name>Pool.Get without putting is a getter of that pool; a function
// that calls <name>Pool.Put is a putter. Getter status propagates to
// functions that hand a gotten buffer off by returning it.
//
// The linter is a registry of independent analyzers; see `-list` for the
// full set and registry.go for the determinism passes (map-range ordering,
// wall-clock reads in pure packages, goroutine captures of pooled or
// reassigned variables).
//
//	go run ./scripts/lint [flags] [repo-root]
//	go run ./scripts/lint -list
//	go run ./scripts/lint -only maprange,walltime
//	go run ./scripts/lint -skip poolpair
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// parseDir parses the non-test Go files of dir, keyed by base filename.
func parseDir(fset *token.FileSet, dir string) map[string]*ast.File {
	entries, err := os.ReadDir(dir)
	if err != nil {
		fatal(err)
	}
	files := map[string]*ast.File{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			fatal(err)
		}
		files[name] = f
	}
	return files
}

// guardedFiles are the only files allowed to mutate use lists.
var guardedFiles = map[string]bool{"value.go": true, "func.go": true}

// lintUseLists flags use-list mutations outside the guarded files.
func lintUseLists(dir string) []string {
	fset := token.NewFileSet()
	var bad []string
	report := func(n ast.Node, msg string) {
		bad = append(bad, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), msg))
	}
	for name, f := range parseDir(fset, dir) {
		if guardedFiles[name] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
					if sel.Sel.Name == "addUse" || sel.Sel.Name == "removeUse" || sel.Sel.Name == "dropUses" {
						report(x, fmt.Sprintf("use-list mutation %s outside ir/value.go+ir/func.go (bypasses sharedUseMu)", sel.Sel.Name))
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "uses" {
						report(x, "direct assignment to a use list outside ir/value.go+ir/func.go")
					}
				}
			case *ast.UnaryExpr:
				if sel, ok := x.X.(*ast.SelectorExpr); ok && x.Op == token.AND && sel.Sel.Name == "uses" {
					report(x, "taking the address of a use list outside ir/value.go+ir/func.go")
				}
			}
			return true
		})
	}
	return bad
}

// poolGet/poolPut recognize <name>Pool.Get / <name>Pool.Put calls and
// return the pool identifier.
func poolCall(n ast.Node, method string) (string, *ast.CallExpr) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return "", nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || !strings.HasSuffix(id.Name, "Pool") {
		return "", nil
	}
	return id.Name, call
}

// containsIdent reports whether the identifier name occurs anywhere in n.
func containsIdent(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// lintPools checks the get/put pairing of one package directory.
func lintPools(dir string) []string {
	fset := token.NewFileSet()
	var decls []*ast.FuncDecl
	for _, f := range parseDir(fset, dir) {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}

	// Pass 1: classify putters (call <pool>.Put) and seed getters (call
	// <pool>.Get without putting to the same pool).
	getters, putters := classifyPoolFuncs(decls)

	// Pass 2: propagate getter status through hand-offs — a function that
	// returns a buffer obtained from a getter is itself a getter. Iterate
	// to a fixed point (the call graph is tiny).
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			if _, isGetter := getters[fd.Name.Name]; isGetter {
				continue
			}
			for v, pool := range gotVars(fd, getters) {
				if returnsIdent(fd, v) && !releases(fd, v, pool, putters) {
					getters[fd.Name.Name] = pool
					changed = true
				}
			}
		}
	}

	// Pass 3: every gotten buffer must be released or handed off.
	var bad []string
	for _, fd := range decls {
		for v, pool := range gotVars(fd, getters) {
			if releases(fd, v, pool, putters) || returnsIdent(fd, v) || assignsToField(fd, v) {
				continue
			}
			bad = append(bad, fmt.Sprintf("%s: %s: buffer %q from %s is neither released (Put) nor handed off (returned)",
				fset.Position(fd.Pos()), fd.Name.Name, v, pool))
		}
	}

	// Pass 4: a raw Get whose result is not bound to a variable can never
	// be released.
	for _, fd := range decls {
		bound := map[ast.Node]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				for _, rhs := range as.Rhs {
					ast.Inspect(rhs, func(m ast.Node) bool {
						if _, call := poolCall(m, "Get"); call != nil {
							bound[call] = true
						}
						return true
					})
				}
			}
			return true
		})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if pool, call := poolCall(n, "Get"); call != nil && !bound[call] {
				bad = append(bad, fmt.Sprintf("%s: %s: %s.Get() result is discarded",
					fset.Position(call.Pos()), fd.Name.Name, pool))
			}
			return true
		})
	}
	return bad
}

// classifyPoolFuncs seeds the pool ownership maps from raw Get/Put calls:
// a function that calls <pool>.Put is a putter of that pool; one that calls
// <pool>.Get without putting to the same pool is a getter.
func classifyPoolFuncs(decls []*ast.FuncDecl) (getters, putters map[string]string) {
	getters = map[string]string{} // func name -> pool it hands out
	putters = map[string]string{} // func name -> pool it releases
	for _, fd := range decls {
		gets, puts := map[string]bool{}, map[string]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if pool, _ := poolCall(n, "Get"); pool != "" {
				gets[pool] = true
			}
			if pool, _ := poolCall(n, "Put"); pool != "" {
				puts[pool] = true
			}
			return true
		})
		for pool := range puts {
			putters[fd.Name.Name] = pool
		}
		for pool := range gets {
			if !puts[pool] {
				getters[fd.Name.Name] = pool
			}
		}
	}
	return getters, putters
}

// gotVars returns the variables of fd bound to a pooled buffer: assigned
// from a raw <pool>.Get or from a call to a known getter function.
func gotVars(fd *ast.FuncDecl, getters map[string]string) map[string]string {
	out := map[string]string{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) == 0 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		for _, rhs := range as.Rhs {
			if pool, call := rawOrGetterCall(rhs, getters); call != nil {
				out[id.Name] = pool
			}
		}
		return true
	})
	return out
}

// rawOrGetterCall reports whether expr contains a raw pool Get or a call to
// a getter function, and which pool the buffer belongs to.
func rawOrGetterCall(expr ast.Expr, getters map[string]string) (string, *ast.CallExpr) {
	var pool string
	var found *ast.CallExpr
	ast.Inspect(expr, func(n ast.Node) bool {
		if p, call := poolCall(n, "Get"); call != nil {
			pool, found = p, call
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if p, ok := getters[id.Name]; ok {
					pool, found = p, call
					return false
				}
			}
		}
		return true
	})
	return pool, found
}

// releases reports whether fd passes variable v to a putter of pool (a
// known putter function or a raw <pool>.Put call).
func releases(fd *ast.FuncDecl, v, pool string, putters map[string]string) bool {
	rel := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if rel {
			return false
		}
		if p, call := poolCall(n, "Put"); call != nil && p == pool {
			for _, a := range call.Args {
				if containsIdent(a, v) {
					rel = true
				}
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || putters[id.Name] != pool {
			return true
		}
		for _, a := range call.Args {
			if containsIdent(a, v) {
				rel = true
			}
		}
		return true
	})
	return rel
}

// returnsIdent reports whether any return statement of fd hands the buffer
// v off to the caller — who then inherits the release obligation. Only
// expressions that structurally ARE the buffer count (the identifier, a
// reslice, a dereference); a derived scalar like len(v) does not release
// anything.
func returnsIdent(fd *ast.FuncDecl, v string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				if isBufferExpr(r, v) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// assignsToField reports whether fd hands the buffer v off by assigning it
// to a struct field (`x.field = v`): ownership transfers to the containing
// object, whose lifecycle inherits the release obligation (e.g. the merger
// scratch parked in Result.scratch until Discard or Commit). Only assignments
// whose right-hand side structurally IS the buffer count.
func assignsToField(fd *ast.FuncDecl, v string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return !found
		}
		for i, lhs := range as.Lhs {
			if _, ok := lhs.(*ast.SelectorExpr); !ok {
				continue
			}
			if i < len(as.Rhs) && isBufferExpr(as.Rhs[i], v) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isBufferExpr reports whether expr evaluates to the buffer named v (possibly
// resliced, dereferenced or re-addressed), as opposed to a value derived
// from it.
func isBufferExpr(expr ast.Expr, v string) bool {
	switch x := expr.(type) {
	case *ast.Ident:
		return x.Name == v
	case *ast.SliceExpr:
		return isBufferExpr(x.X, v)
	case *ast.StarExpr:
		return isBufferExpr(x.X, v)
	case *ast.ParenExpr:
		return isBufferExpr(x.X, v)
	case *ast.UnaryExpr:
		return x.Op == token.AND && isBufferExpr(x.X, v)
	case *ast.TypeAssertExpr:
		return isBufferExpr(x.X, v)
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lint:", err)
	os.Exit(1)
}
