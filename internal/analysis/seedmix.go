package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SeedMixAnalyzer guards the seed-derivation convention fixed in PR 3:
// related RNG streams must be separated by an avalanche mixer (the
// repo's splitmix64-based seedStream/sessionMix helpers), never by raw
// arithmetic on the job seed.
//
// Raw derivations look harmless but collide across the very seed
// families users pick: `seed ^ const` maps pairs of seeds to the same
// stream (the pre-PR 3 controller seed collided job seed s with
// s^0x5deece66d), and additive walks like `seed + i*7919 + 1` reuse a
// sibling job's streams whenever two base seeds differ by a small
// multiple (the pre-PR 3 pair seeds collided consecutive CLI seeds).
//
// The analyzer reports any rand.NewSource / rand.New / v2 source
// constructor whose seed argument contains binary or unary arithmetic
// (^ + - * / % & | << >>) outside a function call. Deriving through a
// named function is the sanctioned pattern: the mixer whitens its
// inputs, and the call boundary is where review attention belongs.
var SeedMixAnalyzer = &Analyzer{
	Name:     "seedmix",
	Doc:      "RNG seed derivation must go through a mixing function, not raw XOR/arithmetic on a base seed",
	Register: registerSeedMix,
}

// seedConsumers are the constructors whose integer arguments become
// stream seeds: math/rand's, and the repo's own stream constructors.
var seedConsumers = map[string]bool{
	"NewSource": true, // math/rand
	"NewPCG":    true, // math/rand/v2
	"Seed":      true, // (*rand.Rand).Seed and the deprecated package func
	// internal/core's threshold-noise stream, seeded like NewSource.
	"newNormStream": true,
}

func registerSeedMix(pass *Pass, ins *Inspector) {
	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		name, ok := seedConsumer(pass, call)
		if !ok {
			return
		}
		for _, arg := range call.Args {
			if op, bad := findRawMix(pass, arg); bad {
				pass.Reportf(arg.Pos(),
					"raw %q seed derivation in %s: related base seeds collide; derive the stream seed through a splitmix64-style mixing function instead",
					op.String(), name)
			}
		}
	})
}

// seedConsumer reports whether call constructs or reseeds a stream and
// names the consumer: a math/rand selector (rand.NewSource,
// r.Seed), or a call of a repo constructor listed in seedConsumers
// that returns an RNG-typed stream (isRNGType).
func seedConsumer(pass *Pass, call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if seedConsumers[fun.Sel.Name] && isRandSelector(pass, fun) {
			return "rand." + fun.Sel.Name, true
		}
	case *ast.Ident:
		fn, ok := pass.Info.Uses[fun].(*types.Func)
		if !ok || !seedConsumers[fn.Name()] {
			return "", false
		}
		res := fn.Type().(*types.Signature).Results()
		if res.Len() == 1 && isRNGType(res.At(0).Type()) {
			return fn.Name(), true
		}
	}
	return "", false
}

// isRandSelector reports whether sel resolves into math/rand (package
// function like rand.NewSource) or onto one of its types ((*rand.Rand).
// Seed).
func isRandSelector(pass *Pass, sel *ast.SelectorExpr) bool {
	if ident, ok := sel.X.(*ast.Ident); ok {
		if pkgName, ok := pass.Info.Uses[ident].(*types.PkgName); ok {
			return isRandPkg(pkgName.Imported().Path())
		}
	}
	if tv, ok := pass.Info.Types[sel.X]; ok {
		return isRNGType(tv.Type)
	}
	return false
}

// findRawMix walks the seed expression looking for arithmetic outside a
// call boundary. Conversions (int64(x)) and parentheses are traversed;
// a genuine CallExpr stops the walk — a named derivation function is
// the pattern the analyzer exists to steer people toward.
func findRawMix(pass *Pass, e ast.Expr) (token.Token, bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return findRawMix(pass, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.XOR { // ^x bit complement
			return e.Op, true
		}
		return findRawMix(pass, e.X)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.XOR, token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.AND, token.OR, token.AND_NOT, token.SHL, token.SHR:
			return e.Op, true
		}
		if op, bad := findRawMix(pass, e.X); bad {
			return op, true
		}
		return findRawMix(pass, e.Y)
	case *ast.CallExpr:
		// A conversion like int64(x) is transparent; a real call is the
		// sanctioned mixer boundary.
		if tv, ok := pass.Info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return findRawMix(pass, e.Args[0])
		}
		return token.ILLEGAL, false
	}
	return token.ILLEGAL, false
}
