package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Fset   *token.FileSet
	Files  []*ast.File
	Types  *types.Package
	Info   *types.Info
	Path   string
	Allows *AllowIndex
}

// Loader parses and type-checks packages from directories. One Loader
// shares a FileSet and a source importer across every package it loads,
// so the (expensive) from-source type-checking of common dependencies —
// fmt, context, this module's internal packages — happens once per
// process instead of once per package.
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer
}

// NewLoader builds a loader backed by the compiler-independent "source"
// importer, which resolves both standard-library and module-internal
// imports from source. It needs no pre-built export data, which keeps
// energylint runnable with nothing but the go toolchain.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{Fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// LoadDir loads the single non-test package in dir under the given
// import path, keeping the files the go command would build for this
// GOOS and GOARCH (file-name suffixes and //go:build lines). Test files
// (*_test.go) are exempt from energylint by design: tests may
// legitimately wall-clock, and their randomness is already pinned by
// explicit rand.NewSource seeds.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		match, err := build.Default.MatchFile(dir, n)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if match {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	pkgName := ""
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		} else if f.Name.Name != pkgName {
			return nil, fmt.Errorf("analysis: %s holds two packages, %s and %s", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{
		Fset:   l.Fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
		Path:   path,
		Allows: newAllowIndex(l.Fset, files),
	}, nil
}
