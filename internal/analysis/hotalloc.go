package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Hotalloc enforces allocation discipline on the serving hot path. The
// paper's Eq. 9 makes energy the product of time and power, so every
// avoidable allocation on a per-request or per-cell path is wasted
// joules twice over: the allocation itself, and the GC cycles that
// reclaim it. PR7 already paid for this lesson once — ring.walk was
// rewritten allocation-free after profiling — and this rule keeps such
// reclaimed allocations from regressing.
//
// A function opts in with a doc-comment annotation:
//
//	//energylint:hotpath
//	func (c *Cache) Get(key string) (V, bool) { ... }
//
// Inside an annotated function, and inside its package-local callees
// one level deep (the helper a hot path delegates to is just as hot),
// the rule flags the constructs that allocate on every execution:
// fmt.* calls anywhere (reflection-driven formatting); string
// concatenation, []byte↔string conversions, map/slice composite
// literals, closure literals, `defer`, and `append` to a slice not
// preallocated by a 3-arg make, when any of these sit inside a loop;
// and interface boxing at call sites anywhere (a concrete non-pointer
// argument passed to an interface parameter heap-allocates its copy).
// Constant arguments and pointer-shaped values (pointers, maps, chans,
// funcs) box without allocating and are not flagged.
//
// Known limits, by design: callee expansion stops at one level and at
// package boundaries, escape analysis is not modeled (a flagged
// construct the compiler proves non-escaping is a false positive to
// //energylint:allow with that reason), and preallocation is only
// recognized as a literal 3-arg make in the same function.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "functions annotated //energylint:hotpath (and their direct callees) must avoid per-iteration and per-call allocations",
	URL:  ruleURL("hotalloc"),
	Run:  runHotalloc,
}

func runHotalloc(pass *Pass) error {
	h := &hotallocPass{pass: pass}
	hot := h.collectHot()
	for _, hf := range hot {
		h.checkFunc(hf.decl, hf.where)
	}
	return nil
}

type hotallocPass struct {
	pass *Pass
}

type hotFunc struct {
	decl  *ast.FuncDecl
	where string
}

// collectHot indexes the package's function declarations, finds the
// //energylint:hotpath annotations, and expands the checked set by the
// annotated functions' package-local callees, one level deep. Order is
// deterministic: files and declarations in source order, annotated
// functions before their callees.
func (h *hotallocPass) collectHot() []hotFunc {
	decls := map[types.Object]*ast.FuncDecl{}
	seen := map[*ast.FuncDecl]bool{}
	var out []hotFunc
	for _, fn := range h.pass.funcs {
		if fn.decl == nil {
			continue
		}
		decls[fn.obj] = fn.decl
		if isHotpathAnnotated(fn.decl) {
			seen[fn.decl] = true
			out = append(out, hotFunc{fn.decl, "hot path"})
		}
	}
	annotated := len(out)
	for _, hf := range out[:annotated] {
		ast.Inspect(hf.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := callee(h.pass.Info, call)
			if obj == nil || obj.Pkg() != h.pass.Pkg {
				return true
			}
			decl := decls[obj]
			if decl == nil || seen[decl] {
				return true
			}
			seen[decl] = true
			out = append(out, hotFunc{decl, "hot path (callee of " + hf.decl.Name.Name + ")"})
			return true
		})
	}
	return out
}

func isHotpathAnnotated(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//energylint:hotpath")
		if ok && strings.TrimSpace(rest) == "" {
			return true
		}
	}
	return false
}

func (h *hotallocPass) checkFunc(fn *ast.FuncDecl, where string) {
	w := &hotWalker{
		h:       h,
		where:   where,
		pre:     preallocatedSlices(fn.Body, h.pass.Info),
		chained: map[ast.Expr]bool{},
	}
	w.visit(fn.Body, false)
}

// preallocatedSlices collects the local slice variables initialized by
// a 3-arg make — the one shape append cannot force to regrow as long as
// the capacity estimate holds.
func preallocatedSlices(body *ast.BlockStmt, info *types.Info) map[*types.Var]bool {
	pre := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) != 3 {
				continue
			}
			if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fid.Name != "make" || info.ObjectOf(fid) != types.Universe.Lookup("make") {
				continue
			}
			if v, ok := info.ObjectOf(id).(*types.Var); ok {
				pre[v] = true
			}
		}
		return true
	})
	return pre
}

// hotWalker walks one hot function's body tracking whether the current
// node executes once per loop iteration.
type hotWalker struct {
	h     *hotallocPass
	where string
	pre   map[*types.Var]bool
	// chained suppresses duplicate reports on the sub-expressions of an
	// already-reported string concatenation chain.
	chained map[ast.Expr]bool
}

func (w *hotWalker) reportf(pos token.Pos, format string, args ...any) {
	w.h.pass.Reportf(pos, format+" in a "+w.where, args...)
}

// visit dispatches one node. Loop bodies (and conditions/post
// statements, which also run per iteration) descend with inLoop set;
// closure bodies reset it — the literal itself is the per-iteration
// cost, its body runs on the closure's own schedule.
func (w *hotWalker) visit(n ast.Node, inLoop bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if x == nil {
			return false
		}
		switch v := x.(type) {
		case *ast.ForStmt:
			if x != n {
				w.visit(v, inLoop)
				return false
			}
			w.visit(v.Init, inLoop)
			w.visit(v.Cond, true)
			w.visit(v.Post, true)
			w.visit(v.Body, true)
			return false
		case *ast.RangeStmt:
			if x != n {
				w.visit(v, inLoop)
				return false
			}
			w.visit(v.X, inLoop)
			w.visit(v.Body, true)
			return false
		case *ast.FuncLit:
			if x != n {
				if inLoop {
					w.reportf(v.Pos(), "closure literal allocated per loop iteration")
				}
				w.visit(v.Body, false)
				return false
			}
			w.visit(v.Body, false)
			return false
		case *ast.DeferStmt:
			if inLoop {
				w.reportf(v.Pos(), "defer inside a loop: every iteration allocates a deferred frame that only runs at function return")
			}
			return true
		case *ast.CallExpr:
			w.call(v, inLoop)
			return true
		case *ast.BinaryExpr:
			if inLoop && v.Op == token.ADD && !w.chained[v] && w.isStringExpr(v) && !w.isConst(v) {
				w.reportf(v.OpPos, "string concatenation per loop iteration; build into a strings.Builder or preallocated []byte")
				w.chained[v.X] = true
				w.chained[v.Y] = true
			} else if w.chained[v] {
				w.chained[v.X] = true
				w.chained[v.Y] = true
			}
			return true
		case *ast.AssignStmt:
			if inLoop && v.Tok == token.ADD_ASSIGN && len(v.Lhs) == 1 && w.isStringExpr(v.Lhs[0]) {
				w.reportf(v.TokPos, "string += per loop iteration reallocates the accumulated string; use a strings.Builder")
			}
			return true
		case *ast.CompositeLit:
			if inLoop {
				switch w.underlying(v).(type) {
				case *types.Map:
					w.reportf(v.Pos(), "map literal allocated per loop iteration; hoist it and clear() between uses")
				case *types.Slice:
					w.reportf(v.Pos(), "slice literal allocated per loop iteration; hoist it and reslice to [:0]")
				}
			}
			return true
		}
		return true
	})
}

func (w *hotWalker) underlying(e ast.Expr) types.Type {
	tv, ok := w.h.pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return nil
	}
	return tv.Type.Underlying()
}

func (w *hotWalker) isStringExpr(e ast.Expr) bool {
	b, ok := w.underlying(e).(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (w *hotWalker) isConst(e ast.Expr) bool {
	tv, ok := w.h.pass.Info.Types[e]
	return ok && tv.Value != nil
}

// call checks one call expression: fmt formatting, string↔[]byte
// conversions and growing appends in loops, and interface boxing of
// arguments anywhere in the hot function.
func (w *hotWalker) call(call *ast.CallExpr, inLoop bool) {
	if name, ok := w.fmtCallName(call); ok {
		w.reportf(call.Pos(), "%s formats through reflection and allocates; use strconv appends or preformatted strings", name)
		return
	}
	if tv, ok := w.h.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if inLoop && len(call.Args) == 1 && w.isByteStringConversion(tv.Type, call.Args[0]) {
			w.reportf(call.Pos(), "[]byte↔string conversion copies per loop iteration; hoist it or reuse a shared buffer")
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && w.h.pass.Info.ObjectOf(id) == types.Universe.Lookup("append") {
		if inLoop && len(call.Args) > 0 {
			w.checkAppend(call)
		}
		return
	}
	w.checkBoxing(call)
}

func (w *hotWalker) fmtCallName(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := w.h.pass.Info.ObjectOf(sel.Sel)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" {
		return "", false
	}
	return "fmt." + sel.Sel.Name, true
}

func (w *hotWalker) isByteStringConversion(to types.Type, arg ast.Expr) bool {
	from := w.underlying(arg)
	return (isStringType(to) && isByteSlice(from)) || (isByteSlice(to.Underlying()) && isStringType(from))
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func (w *hotWalker) checkAppend(call *ast.CallExpr) {
	target := ast.Unparen(call.Args[0])
	if id, ok := target.(*ast.Ident); ok {
		if v, ok := w.h.pass.Info.ObjectOf(id).(*types.Var); ok && w.pre[v] {
			return
		}
	}
	w.reportf(call.Pos(), "append to %s in a loop may regrow the slice every few iterations; preallocate with a 3-arg make before the loop", types.ExprString(call.Args[0]))
}

// checkBoxing flags concrete, non-pointer-shaped arguments passed to
// interface parameters: the value is copied to the heap to fit behind
// the interface header. Constants are exempt (the compiler interns
// them), as are pointer-shaped values that live in the data word.
func (w *hotWalker) checkBoxing(call *ast.CallExpr) {
	tv, ok := w.h.pass.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // xs... passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().Underlying().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := w.h.pass.Info.Types[arg]
		if at.Type == nil || at.Value != nil {
			continue // constants go to static storage
		}
		if types.IsInterface(at.Type) || isPointerShaped(at.Type) || isUntypedNil(at.Type) {
			continue
		}
		w.reportf(arg.Pos(), "%s (%s) is boxed into interface %s at this call and escapes to the heap; keep the concrete type or pass a pointer", types.ExprString(arg), at.Type, pt)
	}
}

func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
