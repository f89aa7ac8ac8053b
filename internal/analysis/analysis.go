// Package analysis is energylint: a suite of static analyzers that turn
// this repository's reproducibility conventions into compiler-grade,
// CI-checked rules. The headline guarantee of the reproduction — Eq. 9
// constants recovered byte-identically for any -workers count, with
// per-sample identity-derived seeds and context-aware sweeps — survives
// only as long as nobody introduces a stray time.Now, an unseeded
// global rand call, an order-dependent map iteration, or a positional
// seed+i derivation. Each analyzer here mechanically enforces one such
// invariant; cmd/energylint is the multichecker driver.
//
// The framework mirrors the golang.org/x/tools/go/analysis API surface
// (Analyzer, Pass, Reportf, analysistest-style testdata) but is built
// entirely on the standard library's go/ast and go/types, because this
// module deliberately has no third-party dependencies. Every diagnostic
// carries a URL-style rule ID pointing at the "Static analysis" section
// of DESIGN.md, and every rule has a single escape hatch:
//
//	//energylint:allow <rule>(<reason>)
//
// placed on the flagged line or the line directly above it. A bare
// allow without a rule or a reason is itself a diagnostic (see the
// allowdecl analyzer), so suppressions stay auditable.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one energylint rule. The shape intentionally
// matches golang.org/x/tools/go/analysis.Analyzer so the suite could be
// ported onto the upstream framework without touching the rule logic.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics and in
	// //energylint:allow directives.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// URL is the rule's documentation anchor (DESIGN.md#energylint-<name>).
	URL string
	// Run reports the rule's diagnostics through the pass.
	Run func(*Pass) error
}

// Diagnostic is one resolved finding, positioned and attributed.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
	URL     string
	// Allowed marks a finding suppressed by an //energylint:allow
	// directive. Run drops these; RunAll keeps them so the -json mode
	// can show the audited suppressions alongside live findings.
	Allowed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.URL)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Path is the package's import path ("determinism" etc. under
	// analysistest).
	Path string

	allows *AllowIndex
	funcs  []funcUnit
	diags  []Diagnostic
}

// Reportf records a diagnostic at pos unless an //energylint:allow
// directive for this rule covers the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	allowed := p.allows != nil && p.allows.Allowed(p.Analyzer.Name, position)
	p.diags = append(p.diags, Diagnostic{
		Pos:     position,
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
		URL:     p.Analyzer.URL,
		Allowed: allowed,
	})
}

// funcUnit is one function body of the package: a declared function or
// method (decl set), or a function literal bound to a variable by
// `f := func() {...}` or `var f = func() {...}`, whose obj is that
// variable. obj is never nil: go/types defines an object for every
// declared function, init and blank ones included.
type funcUnit struct {
	decl *ast.FuncDecl
	obj  types.Object
	body *ast.BlockStmt
}

// indexFuncs lists the package's function bodies once, in source order:
// each declared function or method with a body, followed by the
// var-bound closures inside it. Package-level var-bound closures sit
// between the declarations around them. The summaries that analyzers
// key by callee object (ctxloop, goleak, seedflow, hotalloc and the lock
// walk) all read this one index.
func indexFuncs(files []*ast.File, info *types.Info) []funcUnit {
	var out []funcUnit
	bind := func(id *ast.Ident, x ast.Expr) {
		lit, ok := x.(*ast.FuncLit)
		if !ok || id.Name == "_" {
			return
		}
		if obj := info.ObjectOf(id); obj != nil {
			out = append(out, funcUnit{obj: obj, body: lit.Body})
		}
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					out = append(out, funcUnit{decl: d, obj: info.ObjectOf(d.Name), body: d.Body})
				}
			case *ast.AssignStmt:
				if len(d.Lhs) == len(d.Rhs) {
					for i, rhs := range d.Rhs {
						if id, ok := d.Lhs[i].(*ast.Ident); ok {
							bind(id, rhs)
						}
					}
				}
			case *ast.ValueSpec:
				if len(d.Names) == len(d.Values) {
					for i, v := range d.Values {
						bind(d.Names[i], v)
					}
				}
			}
			return true
		})
	}
	return out
}

// callee resolves the object a call invokes when its function is a
// plain identifier or selector: a *types.Func for a function or method,
// a *types.Var for a function-valued variable or field, a *types.Builtin
// or *types.TypeName for builtins and conversions, and nil for anything
// else (a call through an index expression or a call result).
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.ObjectOf(fun)
	case *ast.SelectorExpr:
		return info.ObjectOf(fun.Sel)
	}
	return nil
}

// errorType is the predeclared error interface, shared by analyzers.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// Run executes the analyzers over one loaded package and returns the
// combined diagnostics in deterministic order (file, line, column, rule,
// message) so repeated runs and parallel CI shards agree byte-for-byte.
// Findings suppressed by //energylint:allow directives are dropped.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	all, err := RunAll(pkg, analyzers)
	if err != nil {
		return nil, err
	}
	live := all[:0]
	for _, d := range all {
		if !d.Allowed {
			live = append(live, d)
		}
	}
	return live, nil
}

// RunAll is Run without the suppression filter: allowed findings stay
// in the result, marked Allowed, in the same deterministic order.
func RunAll(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	funcs := indexFuncs(pkg.Files, pkg.Info)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Path:     pkg.Path,
			allows:   pkg.Allows,
			funcs:    funcs,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
		}
		all = append(all, pass.diags...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return all, nil
}

// All returns the full energylint suite in the order diagnostics should
// be attributed when several rules fire on one line.
func All() []*Analyzer {
	return []*Analyzer{
		Allowdecl,
		Ctxloop,
		Determinism,
		Errwrap,
		Goleak,
		Hotalloc,
		Lockguard,
		Lockorder,
		Seedflow,
		Unittypes,
	}
}

// ruleURL builds the documentation anchor every analyzer advertises.
func ruleURL(name string) string {
	return "DESIGN.md#energylint-" + name
}
