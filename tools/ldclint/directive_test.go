package main

// Unit tests for the directive machinery itself — the ignore index — at a
// finer grain than the fixture suite:
// these feed sources straight to the parser and assert on the intermediate
// structures, so a regression pinpoints the broken stage rather than
// surfacing as a mysterious fixture diff.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d_test_src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

func TestBuildIgnoreIndex(t *testing.T) {
	src := `package p

func a() {
	//ldclint:ignore mutexio held deliberately
	_ = 1
}

func b() {
	_ = 2 //ldclint:ignore all everything sanctioned on this line
}

func c() {
	//ldclint:ignore errclose
	_ = 3
}

func d() {
	//ldclint:ignore nosuch a fine reason
	_ = 4
}
`
	fset, files := parseOne(t, src)
	ix, bad := buildIgnoreIndex(fset, files)

	// Two malformed directives: missing reason, unknown analyzer.
	if len(bad) != 2 {
		t.Fatalf("got %d bad directives, want 2: %v", len(bad), bad)
	}
	if !strings.Contains(bad[0].Message, "needs an analyzer name and a reason") {
		t.Errorf("bad[0] = %q, want missing-reason message", bad[0].Message)
	}
	if !strings.Contains(bad[1].Message, `unknown analyzer "nosuch"`) {
		t.Errorf("bad[1] = %q, want unknown-analyzer message", bad[1].Message)
	}

	// Two well-formed directives indexed, keyed by their own line.
	var names []string
	for _, ds := range ix {
		for _, d := range ds {
			names = append(names, d.name)
		}
	}
	if len(names) != 2 {
		t.Fatalf("indexed %d directives, want 2: %v", len(names), names)
	}
}

func TestIgnoreCoversOwnAndNextLine(t *testing.T) {
	src := `package p

func a() {
	//ldclint:ignore mutexio covers the next line
	_ = 1
}
`
	fset, files := parseOne(t, src)
	ix, _ := buildIgnoreIndex(fset, files)

	var dirPos token.Position
	for _, ds := range ix {
		dirPos = ds[0].position
	}
	sameLine := token.Position{Filename: dirPos.Filename, Line: dirPos.Line}
	nextLine := token.Position{Filename: dirPos.Filename, Line: dirPos.Line + 1}
	twoBelow := token.Position{Filename: dirPos.Filename, Line: dirPos.Line + 2}

	if !ix.covers("mutexio", sameLine) {
		t.Error("directive does not cover its own line")
	}
	if !ix.covers("mutexio", nextLine) {
		t.Error("directive does not cover the line below")
	}
	if ix.covers("mutexio", twoBelow) {
		t.Error("directive covers two lines below; it must not")
	}
	if ix.covers("errclose", nextLine) {
		t.Error("directive covers an analyzer it does not name")
	}
}

func TestIgnoreUsedFlag(t *testing.T) {
	src := `package p

func a() {
	//ldclint:ignore mutexio never matched
	_ = 1
}
`
	fset, files := parseOne(t, src)
	ix, _ := buildIgnoreIndex(fset, files)
	var d *ignoreDirective
	for _, ds := range ix {
		d = ds[0]
	}
	if d.used {
		t.Fatal("directive marked used before any covers call")
	}
	// A miss must not mark it used; a hit must.
	ix.covers("mutexio", token.Position{Filename: d.position.Filename, Line: d.position.Line + 5})
	if d.used {
		t.Error("non-covering query marked the directive used")
	}
	ix.covers("mutexio", d.position)
	if !d.used {
		t.Error("covering query did not mark the directive used")
	}
}

func TestStaleIgnoreReported(t *testing.T) {
	src := `package p

func a() {
	//ldclint:ignore mutexio nothing here fires anymore
	_ = 1
}
`
	fset, files := parseOne(t, src)
	info := newTypesInfo()
	pkg, err := (&types.Config{}).Check("dtest", fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	diags := runAnalyzers(Analyzers, fset, files, pkg, info)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 stale-ignore: %v", len(diags), diags)
	}
	want := `ldclint:ignore for "mutexio" suppresses nothing (stale directive)`
	if diags[0].Message != want {
		t.Errorf("message = %q, want %q", diags[0].Message, want)
	}
}
