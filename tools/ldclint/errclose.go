package main

// errclose flags silently dropped errors from the durability-critical
// resource methods: Close/Sync/Flush/Finish on WAL writers, SSTable
// readers/writers, vfs files, and network connections/listeners. A WAL
// Sync whose error vanishes is a lost-durability bug; a dropped SSTable
// Close can hide a failed table write until recovery.
//
// Scope is deliberately narrow — only receivers from the wal, sstable, and
// vfs packages and from net are checked, so the idiomatic dropped Close on
// application-level objects (db.Close() in a test teardown) stays legal.
//
// Two drop forms are exempt by policy (documented in DESIGN.md):
//
//   - deferred calls: `defer f.Close()` on a read-only handle is
//     conventional, and Go provides no ergonomic way to route the error;
//   - explicit discards: `_ = f.Close()` states intent and is the
//     sanctioned way to mark a genuinely ignorable drop (e.g. cleanup of a
//     file that failed to open).

import (
	"go/ast"
	"go/types"
)

var errcloseAnalyzer = &Analyzer{
	Name: "errclose",
	Doc:  "reports dropped errors from Close/Sync/Flush on WAL, SSTable, vfs, and net types",
	Run:  runErrclose,
}

var errcloseMethods = map[string]bool{
	"Close": true, "Sync": true, "Flush": true, "Finish": true,
}

// errclosePackages are matched by exact path or "/name" suffix, so both
// repro/internal/wal and a fixture package "wal" qualify.
var errclosePackages = []string{"wal", "sstable", "vfs", "net", "vlog"}

func runErrclose(pass *Pass) {
	for _, body := range funcsOf(pass.Files) {
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false // visited as its own body
			}
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if desc := errcloseTarget(pass, call); desc != "" {
				pass.Reportf(call.Pos(),
					"error from %s is dropped; handle it, or discard explicitly with `_ =` if truly ignorable",
					desc)
			}
			return true
		})
	}
}

// errcloseTarget describes the call if it is an in-scope resource-release
// method whose error result is being dropped, else "".
func errcloseTarget(pass *Pass, call *ast.CallExpr) string {
	name := calleeName(call)
	if !errcloseMethods[name] {
		return ""
	}
	recv := recvType(pass.Info, call)
	n := namedOf(recv)
	if n == nil || n.Obj().Pkg() == nil {
		return ""
	}
	pkg := n.Obj().Pkg().Path()
	inScope := false
	for _, p := range errclosePackages {
		if pkgPathMatches(pkg, p) {
			inScope = true
			break
		}
	}
	if !inScope {
		return ""
	}
	if !returnsError(pass, call) {
		return ""
	}
	return "(" + shortPkg(pkg) + "." + n.Obj().Name() + ")." + name
}

// returnsError reports whether the call's results include an error.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Info.Types[ast.Expr(call)]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
	default:
		return isErrorType(t)
	}
	return false
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}

func shortPkg(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
