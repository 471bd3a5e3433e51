package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism proves that every library package computes from the seed
// alone, so goldens and the workers-differential tests stay byte-identical.
// A `package main` owns its clock and its output and is not patrolled; the
// nine examples' output is pinned byte for byte by TestExamples instead.
//
// Checks:
//
//	wallclock  — calls into package time that read or depend on the real
//	             clock (Now, Since, Until, Tick, After, AfterFunc, Sleep,
//	             NewTimer, NewTicker). Timing experiments that deliberately
//	             measure host time carry //lint:allow wallclock.
//	globalrand — draws from math/rand's process-global generator (rand.Intn
//	             et al.). All randomness must flow from a Sim-seeded
//	             *rand.Rand; constructors (New, NewSource, NewZipf) pass.
//	maporder   — a `range` over a map whose iteration order escapes: loop-
//	             derived values appended or stored into an outer collection
//	             (without a later sort of that collection in the same
//	             function), written to an encoder/output, sent on a channel,
//	             or interleaved with RNG draws.
var Determinism = &Analyzer{
	Name: "determinism",
	Checks: []string{
		"wallclock", "globalrand", "maporder",
	},
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) {
	if pass.Pkg.Types.Name() == "main" {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkClockAndRand(pass, n)
			case *ast.RangeStmt:
				checkMapOrder(pass, n)
			}
			return true
		})
	}
}

// wallclockFuncs are the package-time entry points that observe or depend on
// the host clock.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Tick": true, "After": true,
	"AfterFunc": true, "Sleep": true, "NewTimer": true, "NewTicker": true,
}

// globalRandExempt are the math/rand package functions that construct
// seeded generators rather than drawing from the global one.
var globalRandExempt = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func checkClockAndRand(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.ObjectOf(id).(*types.PkgName)
	if !ok {
		return
	}
	switch pkgName.Imported().Path() {
	case "time":
		if wallclockFuncs[sel.Sel.Name] {
			pass.Reportf(call.Pos(), "wallclock",
				"time.%s reads the host clock in a library package; use Sim time, or annotate a deliberate timing probe with //lint:allow wallclock <reason>",
				sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		if !globalRandExempt[sel.Sel.Name] {
			pass.Reportf(call.Pos(), "globalrand",
				"rand.%s draws from the process-global RNG; draw from a Sim-seeded *rand.Rand instead",
				sel.Sel.Name)
		}
	}
}

// checkMapOrder flags range-over-map loops whose iteration order can leak
// into results.
func checkMapOrder(pass *Pass, rng *ast.RangeStmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}

	// Objects whose value depends on the iteration: the loop variables plus
	// anything assigned inside the body.
	tainted := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.Pkg.Info.Defs[id]; obj != nil {
				tainted[obj] = true
			} else if obj := pass.Pkg.Info.Uses[id]; obj != nil {
				tainted[obj] = true
			}
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := pass.Pkg.Info.Defs[id]; obj != nil && obj.Pos() > rng.Body.Pos() && obj.Pos() < rng.Body.End() {
						tainted[obj] = true
					}
				}
			}
		}
		return true
	})
	usesTaint := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if obj := pass.Pkg.Info.Uses[id]; obj != nil && tainted[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}
	outer := func(id *ast.Ident) types.Object {
		obj := pass.Pkg.Info.Uses[id]
		if obj == nil || obj.Pos() == token.NoPos {
			return nil
		}
		if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
			return nil // declared within the loop: per-iteration state
		}
		return obj
	}

	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "maporder",
			"map iteration order escapes (%s); iterate sorted keys, sort the result before it is observed, or annotate with //lint:allow maporder <reason>", what)
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Node
				if i < len(n.Rhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				checkOrderedStore(pass, rng, lhs, rhs, outer, usesTaint, report)
			}
		case *ast.SendStmt:
			if usesTaint(n.Value) {
				report(n.Pos(), "loop-derived value sent on a channel")
			}
		case *ast.CallExpr:
			checkOrderedCall(pass, n, usesTaint, report)
		}
		return true
	})
}

// checkOrderedStore flags assignments inside a map-range body that push
// loop-derived data into storage that outlives the loop in insertion order:
// appends to an outer slice and writes through an outer slice index. Plain
// writes to outer scalars (flags, counters, min/max reductions) pass — they
// are order-insensitive or at worst fold commutatively — as do writes into
// maps (order-free by construction).
func checkOrderedStore(pass *Pass, rng *ast.RangeStmt, lhs ast.Expr, rhs ast.Node,
	outer func(*ast.Ident) types.Object, usesTaint func(ast.Node) bool,
	report func(token.Pos, string)) {

	// x = append(x, <tainted>) with x declared outside the loop.
	if call, ok := rhs.(*ast.CallExpr); ok {
		if isBuiltinAppend(pass, call) {
			// built-in append: the target is arg 0.
			if target, ok := call.Args[0].(*ast.Ident); ok {
				if obj := outer(target); obj != nil {
					if anyTainted(call.Args[1:], usesTaint) && !sortedLater(pass, rng, obj) {
						report(call.Pos(), "append of loop-derived values to outer slice "+target.Name)
					}
				}
			}
		}
	}
	// outerSlice[i] = <tainted> where the index advances with the loop.
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		if base, ok := ix.X.(*ast.Ident); ok {
			if obj := outer(base); obj != nil {
				if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
					if rhs != nil && usesTaint(rhs) && usesTaint(ix.Index) && !sortedLater(pass, rng, obj) {
						report(ix.Pos(), "indexed store of loop-derived values into outer slice "+base.Name)
					}
				}
			}
		}
	}
}

// checkOrderedCall flags calls inside a map-range body that consume RNG or
// emit output, both of which serialise the map's random order into the run.
func checkOrderedCall(pass *Pass, call *ast.CallExpr, usesTaint func(ast.Node) bool, report func(token.Pos, string)) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		// fmt.X handled below needs a selector; plain calls pass.
		return
	}
	// RNG draw: any method call whose receiver is a *math/rand.Rand. The
	// draw count may match across orders but the stream-to-item assignment
	// cannot.
	if recv := pass.TypeOf(sel.X); recv != nil {
		if named := namedType(recv); named != nil {
			if named.Obj().Pkg() != nil && (named.Obj().Pkg().Path() == "math/rand" || named.Obj().Pkg().Path() == "math/rand/v2") && named.Obj().Name() == "Rand" {
				report(call.Pos(), "RNG draw inside map iteration")
				return
			}
		}
	}
	// Output sink: fmt printing, or writes to builders/buffers/encoders.
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pass.ObjectOf(id).(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
			name := sel.Sel.Name
			if (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Sprint")) &&
				anyTainted(call.Args, usesTaint) {
				report(call.Pos(), "formatted output of loop-derived values")
			}
			return
		}
	}
	if recv := pass.TypeOf(sel.X); recv != nil && anyTainted(call.Args, usesTaint) {
		if named := namedType(recv); named != nil && named.Obj().Pkg() != nil {
			pkgPath := named.Obj().Pkg().Path()
			name := named.Obj().Name()
			switch {
			case pkgPath == "strings" && name == "Builder",
				pkgPath == "bytes" && name == "Buffer":
				if strings.HasPrefix(sel.Sel.Name, "Write") {
					report(call.Pos(), "write of loop-derived values to "+name)
				}
			case strings.HasSuffix(pkgPath, "internal/wire") && name == "Buffer":
				if strings.HasPrefix(sel.Sel.Name, "Put") {
					report(call.Pos(), "wire encoding of loop-derived values")
				}
			}
		}
	}
}

func anyTainted(args []ast.Expr, usesTaint func(ast.Node) bool) bool {
	for _, a := range args {
		if usesTaint(a) {
			return true
		}
	}
	return false
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) == 0 {
		return false
	}
	_, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// sortedLater reports whether obj (a slice accumulated inside rng) is passed
// to a recognised sort call after the loop within the same enclosing
// function body — the canonical collect-then-sort idiom. Recognised sorts
// are the sort and slices packages plus local helpers whose name contains
// "sort" (the repo hand-rolls allocation-free sorts like sortAds).
func sortedLater(pass *Pass, rng *ast.RangeStmt, obj types.Object) bool {
	fn := enclosingFunc(pass, rng.Pos())
	if fn == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || sorted {
			return !sorted
		}
		if !isSortCall(pass, call) {
			return true
		}
		for _, a := range call.Args {
			used := false
			ast.Inspect(a, func(m ast.Node) bool {
				if mid, ok := m.(*ast.Ident); ok && pass.Pkg.Info.Uses[mid] == obj {
					used = true
				}
				return !used
			})
			if used {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}

// isSortCall recognises calls that impose a canonical order on their
// argument.
func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		if pn, ok := pass.ObjectOf(id).(*types.PkgName); ok {
			p := pn.Imported().Path()
			return p == "sort" || p == "slices"
		}
		return false
	case *ast.Ident:
		return strings.Contains(strings.ToLower(fun.Name), "sort")
	}
	return false
}

// enclosingFunc returns the innermost FuncDecl or FuncLit body containing
// pos in the package.
func enclosingFunc(pass *Pass, pos token.Pos) ast.Node {
	var best ast.Node
	for _, f := range pass.Pkg.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				if n.Pos() <= pos && pos < n.End() {
					best = n
				}
			}
			return true
		})
	}
	return best
}

// namedType unwraps pointers and aliases down to a *types.Named, or nil.
func namedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}
