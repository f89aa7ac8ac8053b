package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Seedflow enforces the pipeline's identity-seeding discipline: a unit
// of work derives its random stream from *what it is*, never from
// *where it ran*. Arithmetic like base+i or base*int64(i) on a loop
// index produces seeds that change whenever the iteration order, grid
// size, or subset changes — exactly the property that breaks
// "parallel == serial byte-identically" and "subsets reproduce the full
// suite".
//
// The rule is a taint pass, not a name heuristic: loop indices are the
// sources, and the RNG constructors rand.NewSource and stats.NewRNG are
// the sinks. Taint propagates through integer arithmetic, type
// conversions and assignments, and one level through package-local call
// arguments (a helper whose parameter reaches a sink makes that
// argument position a sink for its callers). Renaming the variables
// changes nothing — only laundering the index through a genuine mixing
// function does. The sanctioned derivations are the FNV-mixing helpers
// stats.MixSeed and microbench.SampleSeed, which hash the unit's
// identity values; their call results are clean because hashing,
// unlike arithmetic, decouples the seed from the iteration position. A
// plain constant offset (cfg.Seed+9, a stream discriminator) is fine
// because no loop index is involved.
var Seedflow = &Analyzer{
	Name: "seedflow",
	Doc:  "forbid loop indices from flowing into RNG seeds; derive seeds from unit identity",
	URL:  ruleURL("seedflow"),
	Run:  runSeedflow,
}

// seedflowOps are the integer operators that smuggle a loop index into
// a seed value.
var seedflowOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true,
	token.XOR: true, token.OR: true, token.REM: true, token.SHL: true,
}

func runSeedflow(pass *Pass) error {
	// First pass: summarize which parameters of each package-local
	// function flow into a direct seed sink, so call arguments can be
	// treated as sinks one level deep.
	summaries := map[types.Object][]int{}
	for _, fn := range pass.funcs {
		if fn.decl == nil {
			continue
		}
		if idxs := seedParamSummary(pass, fn.decl); len(idxs) > 0 {
			summaries[fn.obj] = idxs
		}
	}
	// Second pass: taint loop indices and report every sink they reach.
	for _, fn := range pass.funcs {
		if fn.decl != nil {
			seedflowFunc(pass, fn.body, summaries)
		}
	}
	return nil
}

// seedParamSummary returns the indices of fn's integer parameters that
// flow (through assignments and arithmetic) into a direct seed sink
// inside fn's own body.
func seedParamSummary(pass *Pass, fn *ast.FuncDecl) []int {
	if fn.Type.Params == nil {
		return nil
	}
	var idxs []int
	paramIdx := 0
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.Info.ObjectOf(name)
			if obj == nil || name.Name == "_" || !isInteger(obj.Type()) {
				paramIdx++
				continue
			}
			e := newTaintEngine(pass, nil)
			e.tainted[obj] = name.Name
			e.propagate(fn.Body)
			if e.anySinkReached(fn.Body) {
				idxs = append(idxs, paramIdx)
			}
			paramIdx++
		}
		if len(field.Names) == 0 {
			paramIdx++
		}
	}
	return idxs
}

// seedflowFunc taints the function's loop indices (including those of
// loops inside closures, which answer to the same iteration order) and
// reports every seed sink a tainted value reaches.
func seedflowFunc(pass *Pass, body *ast.BlockStmt, summaries map[types.Object][]int) {
	e := newTaintEngine(pass, summaries)
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.RangeStmt:
			// Only the key is positional: the range value is the unit's
			// own data, which is exactly what identity seeding wants.
			if id, ok := s.Key.(*ast.Ident); ok && id.Name != "_" {
				if obj := pass.Info.ObjectOf(id); obj != nil && isInteger(obj.Type()) {
					e.tainted[obj] = id.Name
				}
			}
		case *ast.ForStmt:
			if init, ok := s.Init.(*ast.AssignStmt); ok {
				for _, lhs := range init.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						if obj := pass.Info.ObjectOf(id); obj != nil && isInteger(obj.Type()) {
							e.tainted[obj] = id.Name
						}
					}
				}
			}
		}
		return true
	})
	if len(e.tainted) == 0 {
		return
	}
	e.propagate(body)
	e.reportSinks(body)
}

// taintEngine tracks which objects carry loop-index taint within one
// function body. The tainted map records the originating loop index's
// name for each tainted object, so diagnostics can say where the
// positional dependence came from. taintedFields tracks struct fields of
// local variables ((base, field) pairs), so storing base+i into c.stream
// and loading it back does not launder the taint.
type taintEngine struct {
	pass          *Pass
	summaries     map[types.Object][]int
	tainted       map[types.Object]string
	taintedFields map[fieldTaintKey]string
}

// fieldTaintKey names one field of one local variable: the variable's
// object plus the field's object.
type fieldTaintKey struct {
	base  types.Object
	field types.Object
}

func newTaintEngine(pass *Pass, summaries map[types.Object][]int) *taintEngine {
	return &taintEngine{
		pass:          pass,
		summaries:     summaries,
		tainted:       map[types.Object]string{},
		taintedFields: map[fieldTaintKey]string{},
	}
}

// fieldKeyOf resolves an expression of the form base.field (base a plain
// identifier) to its taint key.
func (e *taintEngine) fieldKeyOf(x ast.Expr) (fieldTaintKey, bool) {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return fieldTaintKey{}, false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return fieldTaintKey{}, false
	}
	base := e.pass.Info.ObjectOf(id)
	field := e.pass.Info.ObjectOf(sel.Sel)
	if base == nil || field == nil {
		return fieldTaintKey{}, false
	}
	return fieldTaintKey{base: base, field: field}, true
}

// propagate runs assignment transfer to a fixpoint: x := <tainted expr>
// taints x with the same origin. Compound assignments (x += i) taint
// their target as well.
func (e *taintEngine) propagate(body *ast.BlockStmt) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i := range s.Lhs {
						origin := e.origin(s.Rhs[i])
						if origin == "" && s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
							// x += i: the RHS alone may carry the taint.
							origin = e.origin(s.Lhs[i])
						}
						if origin == "" {
							continue
						}
						if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
							if obj := e.pass.Info.ObjectOf(id); obj != nil && e.tainted[obj] == "" {
								e.tainted[obj] = origin
								changed = true
							}
						} else if key, ok := e.fieldKeyOf(s.Lhs[i]); ok && e.taintedFields[key] == "" {
							// c.stream = base + int64(i): the store taints
							// the (variable, field) pair, so the later
							// load cannot launder the index.
							e.taintedFields[key] = origin
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				if len(s.Names) == len(s.Values) {
					for i, name := range s.Names {
						if origin := e.origin(s.Values[i]); origin != "" && name.Name != "_" {
							if obj := e.pass.Info.ObjectOf(name); obj != nil && e.tainted[obj] == "" {
								e.tainted[obj] = origin
								changed = true
							}
						}
					}
				}
			}
			return true
		})
	}
}

// origin returns the name of the loop index an expression derives from,
// or "" if the expression is clean. Taint flows through parentheses,
// unary operators, the seed-smuggling integer arithmetic operators, and
// type conversions. It does NOT flow through function call results:
// a call is either a sanctioned mixing helper (stats.MixSeed hashes the
// position away) or gets its own summary-based sink treatment.
func (e *taintEngine) origin(x ast.Expr) string {
	switch v := x.(type) {
	case *ast.Ident:
		if obj := e.pass.Info.ObjectOf(v); obj != nil {
			return e.tainted[obj]
		}
	case *ast.SelectorExpr:
		if key, ok := e.fieldKeyOf(v); ok {
			return e.taintedFields[key]
		}
	case *ast.ParenExpr:
		return e.origin(v.X)
	case *ast.UnaryExpr:
		return e.origin(v.X)
	case *ast.BinaryExpr:
		if !seedflowOps[v.Op] || !isInteger(e.pass.Info.TypeOf(v)) {
			return ""
		}
		if o := e.origin(v.X); o != "" {
			return o
		}
		return e.origin(v.Y)
	case *ast.CallExpr:
		// Type conversions (int64(i)) are transparent; real calls launder.
		if tv, ok := e.pass.Info.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
			return e.origin(v.Args[0])
		}
	}
	return ""
}

// sinkArgs returns the argument indices of call that act as seed sinks:
// [0] for the RNG constructors themselves, and the summarized positions
// for package-local helpers whose parameter reaches a constructor.
func (e *taintEngine) sinkArgs(call *ast.CallExpr) []int {
	obj := callee(e.pass.Info, call)
	if obj == nil {
		return nil
	}
	if isSeedSink(obj) {
		return []int{0}
	}
	return e.summaries[obj]
}

func (e *taintEngine) reportSinks(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, ix := range e.sinkArgs(call) {
			if ix >= len(call.Args) {
				continue
			}
			if origin := e.origin(call.Args[ix]); origin != "" {
				e.pass.Reportf(call.Args[ix].Pos(), "seed derived from loop index %q flows into %s: positional seeds break order- and subset-reproducibility; derive the seed from the unit's identity via stats.MixSeed (cf. microbench.SampleSeed)", origin, calleeName(call))
			}
		}
		return true
	})
}

// anySinkReached reports whether any currently tainted value reaches a
// direct sink in body (used for parameter summaries, which deliberately
// stay one level deep: only the RNG constructors count here).
func (e *taintEngine) anySinkReached(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := callee(e.pass.Info, call)
		if obj != nil && isSeedSink(obj) && len(call.Args) > 0 && e.origin(call.Args[0]) != "" {
			found = true
			return false
		}
		return true
	})
	return found
}

// isSeedSink reports whether obj is one of the RNG constructors whose
// first argument is a seed: math/rand.NewSource or stats.NewRNG.
func isSeedSink(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Name() {
	case "NewSource":
		return fn.Pkg().Path() == "math/rand"
	case "NewRNG":
		path := fn.Pkg().Path()
		return path == "stats" || strings.HasSuffix(path, "/stats")
	}
	return false
}

// calleeName renders the call target for diagnostics ("rand.NewSource",
// "stats.NewRNG", "spawnRNG").
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "the seed sink"
}

func isInteger(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
