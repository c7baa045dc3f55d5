package main

// A miniature analysis framework (the shape of golang.org/x/tools/go/analysis,
// reduced to what two intraprocedural, factless analyzers need), and the
// //ldclint:ignore directive machinery shared by both.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers lists every check ldclint runs, in reporting order.
var Analyzers = []*Analyzer{
	mutexioAnalyzer,
	errcloseAnalyzer,
}

// Pass carries one package's worth of inputs to an analyzer and collects
// its diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags   *[]Diagnostic
	ignores ignoreIndex
}

// Diagnostic is one finding, formatted for the vet protocol.
type Diagnostic struct {
	Position token.Position
	Message  string
	// pos orders diagnostics deterministically.
	pos token.Pos
}

// Reportf records a finding unless an ignore directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.ignores.covers(p.Analyzer.Name, position) {
		return
	}
	msg := fmt.Sprintf(format, args...)
	*p.diags = append(*p.diags, Diagnostic{
		Position: position,
		Message:  fmt.Sprintf("%s: %s", p.Analyzer.Name, msg),
		pos:      pos,
	})
}

// runAnalyzers applies every analyzer to the package and returns the merged,
// position-sorted diagnostics. Malformed ignore directives are reported as
// findings in their own right so they cannot silently rot — and so is a
// well-formed directive that suppressed nothing: a stale ignore is a lie
// about which invariants the code still violates.
func runAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) []Diagnostic {
	var diags []Diagnostic
	ignores, bad := buildIgnoreIndex(fset, files)
	for _, d := range bad {
		diags = append(diags, d)
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			diags:    &diags,
			ignores:  ignores,
		}
		a.Run(pass)
	}
	for _, ds := range ignores {
		for _, d := range ds {
			if !d.used {
				diags = append(diags, Diagnostic{
					Position: d.position,
					Message:  fmt.Sprintf("ldclint:ignore for %q suppresses nothing (stale directive)", d.name),
					pos:      d.pos,
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := diags[i].Position, diags[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}

// ---------------------------------------------------------------------------
// Ignore directives

// ignoreDirective is the parsed form of
//
//	//ldclint:ignore <analyzer> <reason...>
//
// The directive suppresses findings of the named analyzer (or every
// analyzer, for the name "all") on the directive's own line and on the line
// directly below it — covering both trailing comments and comments placed
// above the flagged statement.
const ignorePrefix = "//ldclint:ignore"

type ignoreKey struct {
	file string
	line int
}

// ignoreDirective is one indexed directive; used flips when it suppresses a
// finding, so unused directives can be reported as stale afterwards.
type ignoreDirective struct {
	name     string // analyzer name ("all" matches any)
	pos      token.Pos
	position token.Position
	used     bool
}

type ignoreIndex map[ignoreKey][]*ignoreDirective

// covers reports whether a directive suppresses the finding, marking every
// matching directive as used.
func (ix ignoreIndex) covers(analyzer string, pos token.Position) bool {
	covered := false
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range ix[ignoreKey{pos.Filename, line}] {
			if d.name == analyzer || d.name == "all" {
				d.used = true
				covered = true
			}
		}
	}
	return covered
}

// buildIgnoreIndex scans every comment for directives. A directive missing
// its analyzer name or its reason is itself a diagnostic: an unexplained
// suppression is exactly the kind of invariant-in-prose this tool exists to
// eliminate.
func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) (ignoreIndex, []Diagnostic) {
	ix := ignoreIndex{}
	var bad []Diagnostic
	known := map[string]bool{"all": true}
	for _, a := range Analyzers {
		known[a.Name] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				position := fset.Position(c.Pos())
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Position: position,
						Message:  "ldclint:ignore directive needs an analyzer name and a reason",
						pos:      c.Pos(),
					})
					continue
				}
				if !known[fields[0]] {
					bad = append(bad, Diagnostic{
						Position: position,
						Message:  fmt.Sprintf("ldclint:ignore names unknown analyzer %q", fields[0]),
						pos:      c.Pos(),
					})
					continue
				}
				key := ignoreKey{position.Filename, position.Line}
				ix[key] = append(ix[key], &ignoreDirective{
					name:     fields[0],
					pos:      c.Pos(),
					position: position,
				})
			}
		}
	}
	return ix, bad
}

// ---------------------------------------------------------------------------
// Shared type helpers

// deref unwraps pointers.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedOf returns the named type of t (through pointers), or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	n, _ := deref(t).(*types.Named)
	return n
}

// typeFromPkg reports whether t (through pointers) is the named type
// pkg.name, where pkg matches by exact path or by "/pkg" suffix — so the
// real repro/internal/wal and a fixture package "wal" both match.
func typeFromPkg(t types.Type, pkgSuffix, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	if name != "" && n.Obj().Name() != name {
		return false
	}
	return pkgPathMatches(n.Obj().Pkg().Path(), pkgSuffix)
}

// pkgPathMatches reports whether a package path is the named package: an
// exact match or a path ending in "/<suffix>".
func pkgPathMatches(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// recvType returns the type of a method call's receiver expression, or nil
// if call is not a selector-based method call.
func recvType(info *types.Info, call *ast.CallExpr) types.Type {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	return s.Recv()
}

// calleeName returns the method or function name of a call.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// exprKey renders an expression as a stable string key ("db.mu", "s.logMu")
// for matching Lock/Unlock and Ref/Unref receivers textually. Only chains of
// identifiers and field selections are rendered; anything else gets a
// position-unique key so distinct complex expressions never alias.
func exprKey(fset *token.FileSet, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(fset, e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprKey(fset, e.X)
	case *ast.StarExpr:
		return exprKey(fset, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprKey(fset, e.X)
		}
	}
	return fmt.Sprintf("@%v", fset.Position(e.Pos()))
}

// funcsOf yields every function body in the package: declarations and
// function literals. Literals are visited as independent functions (they run
// on their own schedule — often on another goroutine — so lock state never
// flows into them).
func funcsOf(files []*ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						out = append(out, lit.Body)
					}
					return true
				})
				out = append(out, fd.Body)
			}
		}
	}
	return out
}

// callsIn yields the call expressions syntactically inside n, not descending
// into nested function literals (they are analyzed as their own functions).
func callsIn(n ast.Node, visit func(*ast.CallExpr)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			visit(n)
		}
		return true
	})
}

// terminates reports whether a statement list always transfers control out
// of the enclosing function (return, panic, or an unconditional
// continue/break/goto that leaves the straight-line path). It is a
// conservative syntactic check: anything unrecognized is "does not
// terminate".
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch s := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE || s.Tok == token.BREAK || s.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s.List)
	}
	return false
}
