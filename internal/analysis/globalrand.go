package analysis

import (
	"go/ast"
	"go/types"
)

// GlobalRandAnalyzer enforces the per-PE-RNG rule that keeps the
// solver deterministic and race-free: every stochastic component draws
// from an explicitly seeded, goroutine-local *rand.Rand.
//
// It reports:
//   - calls to package-level math/rand functions that consume the
//     process-global source (rand.Intn, rand.Float64, ...): the global
//     source is locked (contention in the PE worker pool) and not
//     reproducible per job;
//   - package-level variables of type *rand.Rand or rand.Source (or a
//     named struct holding one, see isRNGType): one shared stream makes
//     results depend on goroutine schedule;
//   - a *rand.Rand (or rand.Source) captured by a `go func` literal
//     from an enclosing scope, or passed as an argument in a `go`
//     statement: rand.Rand is not safe for concurrent use, and even a
//     guarded stream would make the draw order schedule-dependent.
var GlobalRandAnalyzer = &Analyzer{
	Name:     "globalrand",
	Doc:      "flag global math/rand use and *rand.Rand crossing goroutine boundaries",
	Register: registerGlobalRand,
}

// globalSourceFuncs are the math/rand package-level functions backed by
// the shared global source. Constructors (New, NewSource, NewZipf) and
// pure helpers are fine.
var globalSourceFuncs = map[string]bool{
	"ExpFloat64": true, "Float32": true, "Float64": true,
	"Int": true, "Int31": true, "Int31n": true, "Int63": true,
	"Int63n": true, "Intn": true, "NormFloat64": true, "Perm": true,
	"Read": true, "Seed": true, "Shuffle": true, "Uint32": true,
	"Uint64": true,
	// math/rand/v2 additions.
	"IntN": true, "Int32": true, "Int32N": true, "Int64": true,
	"Int64N": true, "N": true, "Uint32N": true, "Uint64N": true,
	"UintN": true, "Uint": true,
}

func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

// isRNGType reports whether t is (a pointer to) math/rand's Rand or an
// implementation-bearing Source, or to a named struct with a field of
// one of those types. A thin stream wrapper (internal/core's
// normStream, which holds a rand.Source64) is the same unsynchronized,
// order-sensitive state as the source inside it, so the package-level
// and goroutine rules apply to it too. Only direct fields count: a
// struct that merely points at such a wrapper is not itself a stream.
func isRNGType(t types.Type) bool {
	if isRandRNG(t) {
		return true
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isRandRNG(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// isRandRNG reports whether t is (a pointer to) math/rand's Rand,
// Source or Source64.
func isRandRNG(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !isRandPkg(obj.Pkg().Path()) {
		return false
	}
	switch obj.Name() {
	case "Rand", "Source", "Source64":
		return true
	}
	return false
}

func registerGlobalRand(pass *Pass, ins *Inspector) {
	ins.Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
		checkGlobalSourceCall(pass, n.(*ast.SelectorExpr))
	})
	ins.WithStack([]ast.Node{(*ast.GenDecl)(nil)}, func(n ast.Node, stack []ast.Node) {
		checkPackageLevelRNG(pass, stack[0].(*ast.File), n.(*ast.GenDecl))
	})
	ins.Preorder([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node) {
		checkGoStmt(pass, n.(*ast.GoStmt))
	})
}

// checkGlobalSourceCall flags rand.Intn etc. — any selector on the
// math/rand package name resolving to a global-source function.
func checkGlobalSourceCall(pass *Pass, sel *ast.SelectorExpr) {
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.Info.Uses[ident].(*types.PkgName)
	if !ok || !isRandPkg(pkgName.Imported().Path()) {
		return
	}
	if globalSourceFuncs[sel.Sel.Name] {
		pass.Reportf(sel.Pos(),
			"use of global math/rand source %s.%s: draw from an explicitly seeded, goroutine-local *rand.Rand instead",
			pkgName.Imported().Name(), sel.Sel.Name)
	}
}

// checkPackageLevelRNG flags `var rng = rand.New(...)` at package
// scope.
func checkPackageLevelRNG(pass *Pass, file *ast.File, decl *ast.GenDecl) {
	// Only package-level declarations: the decl must be a direct child
	// of the file.
	isTop := false
	for _, d := range file.Decls {
		if d == decl {
			isTop = true
			break
		}
	}
	if !isTop {
		return
	}
	for _, spec := range decl.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, name := range vs.Names {
			obj := pass.Info.Defs[name]
			if obj == nil {
				continue
			}
			if _, isVar := obj.(*types.Var); isVar && isRNGType(obj.Type()) {
				pass.Reportf(name.Pos(),
					"package-level RNG %s is shared by every caller and goroutine: plumb a seeded *rand.Rand instead", name.Name)
			}
		}
	}
}

// checkGoStmt flags RNG state crossing the goroutine boundary: RNG
// arguments in the go call, and RNG variables captured by a go func
// literal from an enclosing scope.
func checkGoStmt(pass *Pass, g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		if tv, ok := pass.Info.Types[arg]; ok && isRNGType(tv.Type) {
			pass.Reportf(arg.Pos(),
				"*rand.Rand passed across a goroutine boundary: rand.Rand is not safe for concurrent use; create the RNG inside the goroutine from its own seed")
		}
	}
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		ident, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		// A field selection (x.rng) is not a capture: the captured
		// variable is x, which is checked on its own.
		obj, ok := pass.Info.Uses[ident].(*types.Var)
		if !ok || obj.IsField() || !isRNGType(obj.Type()) {
			return true
		}
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			pass.Reportf(ident.Pos(),
				"*rand.Rand %s captured by a go func literal: create the RNG inside the goroutine from a per-goroutine mixed seed so each goroutine owns its stream", ident.Name)
		}
		return true
	})
}
