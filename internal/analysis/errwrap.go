package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Errwrap enforces modern error plumbing, which the retrying calibration
// path depends on: faults.Do and the CLI cache loader classify failures
// with errors.Is, and a %v along the wrapping chain or a == comparison
// against a sentinel silently defeats both.
//
// Two sub-rules: fmt.Errorf must wrap error operands with %w (not %v or
// %s), and sentinel comparisons err == ErrX / err != ErrX must be
// errors.Is (nil comparisons stay untouched).
var Errwrap = &Analyzer{
	Name: "errwrap",
	Doc:  "wrap errors with %w and compare sentinels with errors.Is",
	URL:  ruleURL("errwrap"),
	Run:  runErrwrap,
}

func runErrwrap(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkErrorf(pass, n)
			case *ast.BinaryExpr:
				checkSentinelCompare(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkErrorf flags %v / %s verbs whose operand is an error in a
// fmt.Errorf call with a literal format string.
func checkErrorf(pass *Pass, call *ast.CallExpr) {
	fn, ok := callee(pass.Info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
		return
	}
	if len(call.Args) < 2 || call.Ellipsis.IsValid() {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	verbs, ok := formatVerbs(format)
	if !ok {
		return // explicit argument indexes; too clever to second-guess
	}
	for i, verb := range verbs {
		argIdx := 1 + i
		if argIdx >= len(call.Args) {
			break // vet's argument-count check owns this mismatch
		}
		if verb != 'v' && verb != 's' {
			continue
		}
		t := pass.Info.TypeOf(call.Args[argIdx])
		if t == nil || !types.Implements(t, errorType) {
			continue
		}
		pass.Reportf(call.Args[argIdx].Pos(), "error wrapped with %%%c loses its chain; use %%w so errors.Is/As keep working through this wrap", verb)
	}
}

// formatVerbs returns one rune per argument-consuming verb of a Printf
// format string, in order. '*' width/precision arguments appear as '*'.
// ok is false when the format uses explicit indexes like %[1]v.
func formatVerbs(format string) (verbs []rune, ok bool) {
	for i := 0; i < len(format); {
		if format[i] != '%' {
			i++
			continue
		}
		i++ // past '%'
		for i < len(format) && strings.ContainsRune("+-# 0", rune(format[i])) {
			i++
		}
		for {
			for i < len(format) && format[i] >= '0' && format[i] <= '9' {
				i++
			}
			if i < len(format) && format[i] == '*' {
				verbs = append(verbs, '*')
				i++
			}
			if i < len(format) && format[i] == '.' {
				i++
				continue
			}
			break
		}
		if i >= len(format) {
			break
		}
		switch format[i] {
		case '%':
			i++
		case '[':
			return nil, false
		default:
			verbs = append(verbs, rune(format[i]))
			i++
		}
	}
	return verbs, true
}

// checkSentinelCompare flags == / != between two error values where
// neither side is nil.
func checkSentinelCompare(pass *Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.EQL && bin.Op != token.NEQ {
		return
	}
	if isNilExpr(pass, bin.X) || isNilExpr(pass, bin.Y) {
		return
	}
	tx, ty := pass.Info.TypeOf(bin.X), pass.Info.TypeOf(bin.Y)
	if tx == nil || ty == nil {
		return
	}
	if !types.Implements(tx, errorType) || !types.Implements(ty, errorType) {
		return
	}
	op := "errors.Is(err, target)"
	if bin.Op == token.NEQ {
		op = "!errors.Is(err, target)"
	}
	pass.Reportf(bin.Pos(), "comparing errors with %s misses wrapped chains; use %s", bin.Op, op)
}

func isNilExpr(pass *Pass, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.Info.ObjectOf(id).(*types.Nil)
	return isNil
}
