package analysis

import (
	"go/ast"
	"go/types"
)

// Ctxloop enforces cancellation-awareness in the sweep and calibration
// loops. A function that accepts a context.Context advertises that its
// work is bounded by the caller's deadline; a loop inside it that grinds
// through samples or grid points without ever consulting the context
// keeps an energyd request running long after the client hung up, and
// keeps cmd/* pipelines alive after SIGINT. Every loop that does real
// work (calls a function) inside a context-taking function must
// reference a context in its body — ctx.Err(), a select on ctx.Done(),
// or passing ctx to the callee all qualify.
//
// Loops with no calls (pure index arithmetic, slice assembly) and loops
// ranging over channels (the receive itself is the blocking point, and
// the sender owns cancellation) are exempt.
//
// Consulting the context may also happen one call level deep: a loop
// that calls a package-local function, method or closure whose own body
// consults a context — a method on a struct carrying the ctx, or a
// closure capturing it — is covered, even though the callee takes no
// ctx parameter. The summary is deliberately one level only (computed
// from direct context references, never transitively), keeping the
// analysis predictable: if cancellation is buried deeper than one call,
// the loop should say so explicitly.
var Ctxloop = &Analyzer{
	Name: "ctxloop",
	Doc:  "loops doing work inside context-taking functions must consult the context",
	URL:  ruleURL("ctxloop"),
	Run:  runCtxloop,
}

func runCtxloop(pass *Pass) error {
	// One-level summary: calling a package-local function, method or
	// var-bound closure whose body directly references a context value
	// counts as consulting the context.
	consults := map[types.Object]bool{}
	for _, fn := range pass.funcs {
		if referencesContext(pass, fn.body) {
			consults[fn.obj] = true
		}
	}
	for _, fn := range pass.funcs {
		if fn.decl != nil && hasCtxParam(pass, fn.decl.Type) {
			checkCtxLoops(pass, fn.body, consults) // descends into closures itself
		}
	}
	return nil
}

// hasCtxParam reports whether the signature declares a named, non-blank
// context.Context parameter. A parameter named _ cannot be consulted,
// which is a deliberate statement that the function ignores
// cancellation; that choice is visible at the signature and not this
// rule's business.
func hasCtxParam(pass *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if !isContextType(pass.Info.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if name.Name != "_" {
				return true
			}
		}
	}
	return false
}

// checkCtxLoops flags qualifying loops in body, descending into nested
// closures: a func literal without its own context parameter inherits
// the obligation (and the captured ctx) of its enclosing function.
func checkCtxLoops(pass *Pass, body *ast.BlockStmt, consults map[types.Object]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if hasCtxParam(pass, n.Type) {
				checkCtxLoops(pass, n.Body, consults)
				return false
			}
			return true // keep walking: its loops answer to the outer ctx
		case *ast.ForStmt:
			checkOneLoop(pass, n, n.Body, consults)
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					return true
				}
			}
			checkOneLoop(pass, n, n.Body, consults)
		}
		return true
	})
}

func checkOneLoop(pass *Pass, loop ast.Node, body *ast.BlockStmt, consults map[types.Object]bool) {
	if !loopDoesWork(pass, body) {
		return
	}
	if referencesContext(pass, body) {
		return
	}
	if callsCtxConsultingCallee(pass, body, consults) {
		return
	}
	pass.Reportf(loop.Pos(), "loop inside a context-taking function never consults a context; check ctx.Err() (or pass ctx to the work, or call a helper that consults it) so deadlines and client disconnects stop the loop")
}

// callsCtxConsultingCallee reports whether the loop body calls a
// summarized package-local callee that consults a context internally.
func callsCtxConsultingCallee(pass *Pass, body *ast.BlockStmt, consults map[types.Object]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := callee(pass.Info, call); obj != nil && consults[obj] {
			found = true
			return false
		}
		return true
	})
	return found
}

// loopDoesWork reports whether the loop body contains at least one call
// that is not a predeclared builtin — the heuristic separating sweeps
// and measurement loops from cheap slice/index assembly.
func loopDoesWork(pass *Pass, body *ast.BlockStmt) bool {
	work := false
	ast.Inspect(body, func(n ast.Node) bool {
		if work {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			switch pass.Info.ObjectOf(fun).(type) {
			case *types.Builtin, *types.TypeName:
				return true // append/len/make/... or a conversion
			}
		case *ast.SelectorExpr:
			if _, ok := pass.Info.ObjectOf(fun.Sel).(*types.TypeName); ok {
				return true // qualified conversion, e.g. time.Duration(x)
			}
		}
		work = true
		return false
	})
	return work
}

// referencesContext reports whether the body mentions any value of type
// context.Context — the parameter itself, a derived WithTimeout child,
// or a captured one.
func referencesContext(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.ObjectOf(id)
		if v, ok := obj.(*types.Var); ok && isContextType(v.Type()) {
			found = true
		}
		return true
	})
	return found
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
