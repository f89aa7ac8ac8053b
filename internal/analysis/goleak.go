package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Goleak flags go statements that spawn a goroutine with no reachable
// termination path. The daemon's background loops — the health ticker,
// the drift recalibration runner, the async calibrate-and-activate — are
// all expected to exit when their context ends or their channel closes;
// a goroutine that can only spin (`for { work() }` with no return, or a
// bare `select {}`) outlives every drain and leaks a scheduler slot per
// spawn, which the chaos soak only notices if the leak is fast enough to
// hurt within one test run.
//
// The check is syntactic and deliberately shallow: a goroutine body
// diverges when it contains an unconditional `for` loop that no
// `return`, labeled/loop-level `break`, or `goto` can leave, or an empty
// `select{}`. Bounded loops (`for i := 0; i < n; i++`), conditional
// loops, and range loops — including range over a channel, which ends
// when the channel closes — terminate by construction and pass. A
// `select` with a `case <-ctx.Done(): return` inside the loop is an
// escape; a bare `break` inside that select is not (it leaves the
// select, not the loop). Helpers get a one-level summary: `go spin()` is
// flagged when spin's own body diverges, matching how the health and
// drift loops are factored, but divergence two calls deep is out of
// scope — as is a loop that exits only by panicking.
var Goleak = &Analyzer{
	Name: "goleak",
	Doc:  "spawned goroutines must have a reachable termination path",
	URL:  ruleURL("goleak"),
	Run:  runGoleak,
}

func runGoleak(pass *Pass) error {
	// One-level summary: the package's functions and var-bound closures
	// whose own body diverges. Spawning one of them is as leaky as
	// inlining the loop.
	div := map[types.Object]string{}
	for _, fn := range pass.funcs {
		if detail, bad := divergentBody(fn.body); bad {
			div[fn.obj] = detail
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				checkGoStmt(pass, g, div)
			}
			return true
		})
	}
	return nil
}

func checkGoStmt(pass *Pass, g *ast.GoStmt, div map[types.Object]string) {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		if detail, bad := divergentBody(lit.Body); bad {
			pass.Reportf(g.Pos(), "goroutine never terminates: its body contains %s; exit on ctx.Done() or a closed channel, or bound the loop", detail)
			return
		}
		if name, detail, bad := callsDivergent(pass, lit.Body, div); bad {
			pass.Reportf(g.Pos(), "goroutine never terminates: its body calls %s, which contains %s; exit on ctx.Done() or a closed channel, or bound the loop", name, detail)
		}
		return
	}
	if obj := callee(pass.Info, g.Call); obj != nil {
		if detail, bad := div[obj]; bad {
			pass.Reportf(g.Pos(), "goroutine never terminates: %s contains %s; exit on ctx.Done() or a closed channel, or bound the loop", obj.Name(), detail)
		}
	}
}

// divergentBody reports the first construct that makes a body run
// forever: an unconditional for-loop with no escape, or an empty select.
// Nested closures are skipped — they run on their own goroutines.
func divergentBody(body *ast.BlockStmt) (string, bool) {
	detail := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if detail != "" {
			return false
		}
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if v.Cond == nil && !loopEscapes(v) {
				detail = `an unconditional for-loop with no return or break`
				return false
			}
		case *ast.SelectStmt:
			if len(v.Body.List) == 0 {
				detail = "an empty select{} that blocks forever"
				return false
			}
		}
		return true
	})
	return detail, detail != ""
}

// callsDivergent finds a call (outside nested closures) to a summarized
// divergent callee.
func callsDivergent(pass *Pass, body *ast.BlockStmt, div map[types.Object]string) (string, string, bool) {
	var name, detail string
	ast.Inspect(body, func(n ast.Node) bool {
		if detail != "" {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := callee(pass.Info, call); obj != nil {
			if d, bad := div[obj]; bad {
				name, detail = obj.Name(), d
				return false
			}
		}
		return true
	})
	return name, detail, detail != ""
}

// loopEscapes reports whether an unconditional for-loop has a statement
// that leaves it: a return, a goto, a labeled break, or an unlabeled
// break at the loop's own nesting level (not one swallowed by an inner
// loop, switch, or select).
func loopEscapes(loop *ast.ForStmt) bool {
	return stmtsEscape(loop.Body.List, true)
}

func stmtsEscape(list []ast.Stmt, breakExits bool) bool {
	for _, s := range list {
		if stmtEscapes(s, breakExits) {
			return true
		}
	}
	return false
}

func stmtEscapes(s ast.Stmt, breakExits bool) bool {
	switch v := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		switch v.Tok {
		case token.BREAK:
			// A labeled break targets an enclosing statement; from inside
			// the loop that is always an exit.
			return breakExits || v.Label != nil
		case token.GOTO:
			return true
		}
		return false
	case *ast.BlockStmt:
		return stmtsEscape(v.List, breakExits)
	case *ast.LabeledStmt:
		return stmtEscapes(v.Stmt, breakExits)
	case *ast.IfStmt:
		if stmtEscapes(v.Body, breakExits) {
			return true
		}
		return v.Else != nil && stmtEscapes(v.Else, breakExits)
	case *ast.ForStmt:
		return stmtsEscape(v.Body.List, false)
	case *ast.RangeStmt:
		return stmtsEscape(v.Body.List, false)
	case *ast.SwitchStmt:
		return clausesEscape(v.Body, false)
	case *ast.TypeSwitchStmt:
		return clausesEscape(v.Body, false)
	case *ast.SelectStmt:
		return clausesEscape(v.Body, false)
	}
	return false
}

func clausesEscape(body *ast.BlockStmt, breakExits bool) bool {
	for _, cl := range body.List {
		switch c := cl.(type) {
		case *ast.CaseClause:
			if stmtsEscape(c.Body, breakExits) {
				return true
			}
		case *ast.CommClause:
			if stmtsEscape(c.Body, breakExits) {
				return true
			}
		}
	}
	return false
}
