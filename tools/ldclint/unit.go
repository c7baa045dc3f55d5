package main

// The cmd/go vettool protocol, implemented with the standard library only.
//
// For every package in the build graph, `go vet -vettool=ldclint` invokes
// the tool with one argument: a JSON config file naming the package's Go
// files and mapping each import path to the compiler export data of the
// dependency. Dependency packages are visited first with VetxOnly set, to
// produce analysis "facts" for their dependents. ldclint's analyzers are
// intraprocedural and use none, so such a unit — and every standard-library
// unit — just writes the empty facts file cmd/go expects and returns, without
// parsing or type-checking anything.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
)

// vetConfig mirrors the fields of cmd/go's vet config (the same JSON
// unitchecker consumes); fields ldclint does not use are omitted —
// encoding/json ignores them.
type vetConfig struct {
	ID           string // package ID, e.g. "repro/internal/wal [repro/internal/wal.test]"
	Compiler     string // "gc"
	Dir          string
	ImportPath   string
	GoVersion    string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ImportMap   map[string]string // import path in source → canonical package path
	PackageFile map[string]string // canonical package path → export data file
	Standard    map[string]bool   // canonical package path → is stdlib

	VetxOnly   bool   // just produce facts for dependents; don't report diagnostics
	VetxOutput string // where to write facts

	SucceedOnTypecheckFailure bool
}

// runUnit analyzes the single package described by the config file and
// returns its diagnostics.
func runUnit(cfgFile string, analyzers []*Analyzer) ([]Diagnostic, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing vet config %s: %w", cfgFile, err)
	}

	if err := writeFacts(cfg.VetxOutput); err != nil {
		return nil, err
	}
	// Dependency-only and standard-library units have nothing to report.
	if cfg.VetxOnly || cfg.Standard[cfg.ImportPath] || cfg.ImportPath == "unsafe" {
		return nil, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil
			}
			return nil, err
		}
		files = append(files, f)
	}

	compilerImporter := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		// path is a canonical package path (already sent through ImportMap).
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})

	tc := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: cfg.GoVersion,
	}
	info := newTypesInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, fmt.Errorf("typechecking %s: %w", cfg.ImportPath, err)
	}
	return runAnalyzers(analyzers, fset, files, pkg, info), nil
}

// writeFacts satisfies the facts half of the protocol: cmd/go expects the
// file to exist after every invocation that names one. ldclint has no facts,
// so the file is empty.
func writeFacts(path string) error {
	if path == "" {
		return nil
	}
	if err := os.WriteFile(path, nil, 0o666); err != nil {
		return fmt.Errorf("writing facts: %w", err)
	}
	return nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// newTypesInfo allocates the full set of type-checker result maps the
// analyzers consult.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}
