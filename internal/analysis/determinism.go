package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// orderSensitivePkgs are the packages in which ranging over a map while
// appending to a slice or writing to an output stream is flagged: the
// measurement, experiment and statistics layers, where iteration order
// leaks straight into seeds, CSV artifacts and fitted constants. (The
// gate is by package name so analysistest packages can opt in.)
var orderSensitivePkgs = map[string]bool{
	"tegra": true, "microbench": true, "experiments": true,
	"faults": true, "powermon": true, "core": true, "stats": true,
}

// wallClockFuncs are the time-package functions that read the wall
// clock. Since and Until are included because they are sugar over Now.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// globalRandAllowed are the math/rand package-level functions that do
// NOT touch the shared global source and are therefore fine: they
// construct explicitly seeded generators.
var globalRandAllowed = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// Determinism enforces the repository's headline reproducibility
// guarantee at the source level. Three sub-rules:
//
//  1. no wall clock: time.Now / time.Since / time.Until are forbidden in
//     production code — a simulated measurement that reads the host
//     clock is no longer a function of (seed, identity). Injected
//     clocks (serve.Options.Clock) declare their time.Now default with
//     an //energylint:allow determinism(...) directive.
//  2. no global rand: math/rand package-level functions draw from the
//     process-wide source, whose state depends on everything that ran
//     before; only explicitly seeded generators (rand.New,
//     rand.NewSource, stats.NewRNG) are allowed.
//  3. no order-dependent map iteration (in the measurement/experiment
//     packages): a `for range m` over a map that appends to an outer
//     slice or writes to a stream emits results in a different order
//     every run unless the collected slice is sorted afterwards in the
//     same function.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock reads, global math/rand, and order-dependent map iteration",
	URL:  ruleURL("determinism"),
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				checkClockAndRand(pass, sel)
			}
			return true
		})
	}
	if orderSensitivePkgs[pass.Pkg.Name()] {
		checkMapOrder(pass)
	}
	return nil
}

// checkClockAndRand flags uses (calls or references) of wall-clock and
// global-rand functions.
func checkClockAndRand(pass *Pass, sel *ast.SelectorExpr) {
	obj := pass.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Only package-level functions: a method named Now on an injected
	// clock interface is precisely the sanctioned alternative.
	if fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			pass.Reportf(sel.Pos(), "time.%s reads the wall clock; inject a clock (cf. serve.Options.Clock) so simulated runs stay a pure function of the seed", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !globalRandAllowed[fn.Name()] {
			pass.Reportf(sel.Pos(), "rand.%s draws from the process-global source; use an explicitly seeded generator (rand.New(rand.NewSource(seed)) or stats.NewRNG)", fn.Name())
		}
	}
}

// checkMapOrder flags map-range loops whose body appends to a slice
// declared outside the loop (unless that slice is sorted later in the
// same function) or writes to an output stream.
func checkMapOrder(pass *Pass) {
	for _, file := range pass.Files {
		// Walk function by function so "sorted later" can be resolved
		// against the enclosing body.
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body == nil {
				return true
			}
			checkMapOrderFunc(pass, body)
			return true
		})
	}
}

func checkMapOrderFunc(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, body, rng)
		return true
	})
}

func checkMapRangeBody(pass *Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its own function; analyzed separately
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltin(pass, call.Fun, "append") || i >= len(n.Lhs) {
					continue
				}
				target, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.ObjectOf(target)
				if obj == nil || insideNode(rng, obj.Pos()) {
					continue // loop-local accumulator: scoped to one iteration
				}
				if sortedLater(pass, funcBody, obj, rng.End()) {
					continue
				}
				pass.Reportf(n.Pos(), "append to %q while ranging over a map visits keys in nondeterministic order; collect and sort the keys first (cf. serve.sortedKeys)", target.Name)
			}
		case *ast.CallExpr:
			if name, ok := writerCall(pass, rng, n); ok {
				pass.Reportf(n.Pos(), "%s inside a map-range loop emits output in nondeterministic order; iterate sorted keys instead", name)
				return false
			}
		}
		return true
	})
}

// isBuiltin reports whether fun denotes the named predeclared function.
func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.Info.ObjectOf(id).(*types.Builtin)
	return ok
}

// insideNode reports whether pos falls inside n's source range.
func insideNode(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}

// sortedLater reports whether obj is passed to a sort.* or slices.Sort*
// call after the map-range loop ends — the collect-then-sort idiom.
func sortedLater(pass *Pass, funcBody *ast.BlockStmt, obj types.Object, after token.Pos) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after {
			return true
		}
		fn, ok := callee(pass.Info, call).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObject(pass, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// mentionsObject reports whether expr references obj anywhere.
func mentionsObject(pass *Pass, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// writerNames are the method names that emit bytes to a stream.
var writerNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// writerCall recognizes stream writes whose sink outlives one loop
// iteration: fmt.Fprint{,f,ln}, io.WriteString, and Write* methods on a
// receiver declared outside the loop. A bytes.Buffer or strings.Builder
// created inside the iteration is per-key state and stays deterministic.
func writerCall(pass *Pass, rng *ast.RangeStmt, call *ast.CallExpr) (string, bool) {
	fn, ok := callee(pass.Info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		switch fn.Pkg().Path() {
		case "fmt":
			switch fn.Name() {
			case "Fprint", "Fprintf", "Fprintln":
				return "fmt." + fn.Name(), true
			}
		case "io":
			if fn.Name() == "WriteString" {
				return "io.WriteString", true
			}
		}
		return "", false
	}
	if !writerNames[fn.Name()] {
		return "", false
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if root := rootIdent(sel.X); root != nil {
			if obj := pass.Info.ObjectOf(root); obj != nil && insideNode(rng, obj.Pos()) {
				return "", false
			}
		}
	}
	return "(" + types.TypeString(sig.Recv().Type(), types.RelativeTo(pass.Pkg)) + ")." + fn.Name(), true
}

// rootIdent unwraps selectors/indexing/derefs to the base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}
