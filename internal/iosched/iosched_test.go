package iosched

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestNilLimiterIsSafeAndDisabled(t *testing.T) {
	var l *Limiter
	l.Wait(TierFlush, 1<<20) // must not panic or block
	(&Limiter{}).Wait(TierFlush, 1<<20)
}

// TestShellStaysAShell holds the package to what ISSUE 25 left of it: at
// most 20 lines of non-test source with no imports (so no mutex, goroutine
// or clock) and no go statement.
func TestShellStaysAShell(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(src), "\n"); n > 20 {
			t.Errorf("%s has %d lines, want at most 20", name, n)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			t.Errorf("%s imports %s, want no imports", name, imp.Path.Value)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s: go statement at %s", name, fset.Position(g.Pos()))
			}
			return true
		})
	}
}

// TestOnlyBenchImportsIOSched walks the module and fails on any importer of
// this package outside bench/, which is the shell's last reader.
func TestOnlyBenchImportsIOSched(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata":
				return filepath.SkipDir
			}
			if path == filepath.Join(root, "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/iosched" {
				t.Errorf("%s imports %s; only bench/ may", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
