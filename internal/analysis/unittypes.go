package analysis

import (
	"go/ast"
	"go/types"
)

// unitTypePkgs are the packages whose exported API must speak in the
// defined quantity types of internal/units rather than raw float64.
// They are the packages where a number *is* a physical quantity: the
// device model (tegra), the Eq. 9 energy model (core), the energyd wire
// types (serve), the fleet device specs (fleet), the power-meter
// simulation (powermon) and the frequency/voltage tables (dvfs). A
// units.Joule field needs no "…J" suffix: the type system already says
// more than a suffix could.
var unitTypePkgs = map[string]bool{
	"core": true, "tegra": true, "serve": true, "fleet": true, "powermon": true, "dvfs": true,
}

// Unittypes forbids raw float64 in exported API surfaces of the
// unit-bearing packages: struct fields, function parameters and results
// must use a defined quantity type (units.Joule, units.Watt,
// units.Second, units.MegaHertz, …) so that swapping a Watt for a Joule
// is a compile error instead of a silent fit-absorbed bias. Unexported
// identifiers, test files (never loaded) and non-quantity numerics that
// genuinely are dimensionless belong behind a defined type too
// (units.Ratio) or behind an //energylint:allow with a reason.
var Unittypes = &Analyzer{
	Name: "unittypes",
	Doc:  "exported API in core/tegra/serve/powermon/dvfs must use units.* quantity types, not raw float64",
	URL:  ruleURL("unittypes"),
	Run:  runUnittypes,
}

func runUnittypes(pass *Pass) error {
	if !unitTypePkgs[pass.Pkg.Name()] {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					unittypesType(pass, ts)
				}
			case *ast.FuncDecl:
				unittypesFunc(pass, d)
			}
		}
	}
	return nil
}

// unittypesType checks an exported type declaration: struct fields and
// the signatures of exported interface methods. A defined type whose
// underlying is float64 (type Joule float64) is precisely the sanctioned
// pattern, so *ast.Ident float64 at the top of a TypeSpec is only
// flagged for aliases (type Power = float64), which launder rawness.
func unittypesType(pass *Pass, ts *ast.TypeSpec) {
	switch t := ts.Type.(type) {
	case *ast.StructType:
		for _, field := range t.Fields.List {
			exported := field.Names == nil // embedded: visibility rides on the type name
			for _, name := range field.Names {
				if name.IsExported() {
					exported = true
				}
			}
			if !exported {
				continue
			}
			if bad := rawFloat64In(pass, field.Type); bad != nil {
				fieldName := ts.Name.Name
				if len(field.Names) > 0 {
					fieldName += "." + field.Names[0].Name
				}
				pass.Reportf(bad.Pos(), "exported field %s has raw float64 type: use a units.* quantity type (units.Joule, units.Watt, units.Second, units.Ratio, …) so unit mix-ups fail to compile", fieldName)
			}
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			for _, name := range m.Names {
				if !name.IsExported() {
					continue
				}
				if ft, ok := m.Type.(*ast.FuncType); ok {
					unittypesSignature(pass, "method "+ts.Name.Name+"."+name.Name, ft)
				}
			}
		}
	case *ast.Ident:
		if ts.Assign.IsValid() && isFloat64Expr(pass, t) {
			pass.Reportf(ts.Name.Pos(), "exported alias %s = float64 launders raw float64: declare a defined type (type %s float64) in internal/units instead", ts.Name.Name, ts.Name.Name)
		}
	}
}

// unittypesFunc checks an exported function or method signature.
// Methods on unexported receiver types are themselves unreachable
// outside the package, so they are exempt.
func unittypesFunc(pass *Pass, fn *ast.FuncDecl) {
	if !fn.Name.IsExported() {
		return
	}
	if fn.Recv != nil && !exportedReceiver(fn.Recv) {
		return
	}
	unittypesSignature(pass, fn.Name.Name, fn.Type)
}

func unittypesSignature(pass *Pass, what string, ft *ast.FuncType) {
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			if bad := rawFloat64In(pass, field.Type); bad != nil {
				pass.Reportf(bad.Pos(), "exported %s takes raw float64: give the parameter a units.* quantity type so callers cannot swap a Watt for a Joule", what)
			}
		}
	}
	if ft.Results != nil {
		for _, field := range ft.Results.List {
			if bad := rawFloat64In(pass, field.Type); bad != nil {
				pass.Reportf(bad.Pos(), "exported %s returns raw float64: return a units.* quantity type so the result's dimension is machine-checked", what)
			}
		}
	}
}

// exportedReceiver reports whether the method's receiver base type name
// is exported.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// rawFloat64In returns the first syntactic occurrence of raw float64 in
// a type expression, descending through slices, arrays, maps, pointers,
// channels and inline func types. Named types are the boundary: a
// units.Joule or a counters.Profile is checked where it is declared,
// not at every use site.
func rawFloat64In(pass *Pass, e ast.Expr) ast.Expr {
	switch t := e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		// A bare identifier of basic type float64 is the raw spelling;
		// defined types (units.Joule) have *types.Named type and pass.
		if isFloat64Expr(pass, e) {
			return e
		}
	case *ast.StarExpr:
		return rawFloat64In(pass, t.X)
	case *ast.ArrayType:
		return rawFloat64In(pass, t.Elt)
	case *ast.MapType:
		if bad := rawFloat64In(pass, t.Key); bad != nil {
			return bad
		}
		return rawFloat64In(pass, t.Value)
	case *ast.ChanType:
		return rawFloat64In(pass, t.Value)
	case *ast.Ellipsis:
		return rawFloat64In(pass, t.Elt)
	case *ast.FuncType:
		for _, list := range []*ast.FieldList{t.Params, t.Results} {
			if list == nil {
				continue
			}
			for _, f := range list.List {
				if bad := rawFloat64In(pass, f.Type); bad != nil {
					return bad
				}
			}
		}
	case *ast.ParenExpr:
		return rawFloat64In(pass, t.X)
	}
	return nil
}

// isFloat64Expr reports whether e's type is the basic float64.
func isFloat64Expr(pass *Pass, e ast.Expr) bool {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.Float64
}
