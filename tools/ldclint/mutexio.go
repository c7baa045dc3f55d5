package main

// mutexio encodes the engine's locking rule: fsync-class and network I/O must
// never run while a mutex is held. The write path appends to the WAL under
// db.mu but pays the fsync after releasing it; version.Set never holds
// set.mu across I/O; the serving layer never writes a connection under a
// server lock. This analyzer turns those review rules into machine checks.
//
// The check is intraprocedural and syntactic about control flow: within one
// function it tracks which mutex expressions ("db.mu", "s.logMu") are held
// at each statement — Lock()/RLock() opens a region, Unlock()/RUnlock()
// closes it, defer Unlock() holds to function exit, and branches merge
// conservatively (a mutex counts as held after an if/else only when it is
// held on every non-terminating path, so early-unlock error returns do not
// poison the main path). Function literals are analyzed as separate
// functions with no inherited lock state, since they typically run on other
// goroutines.
//
// Flagged calls while any mutex is held:
//
//   - (vfs.File) Write / ReadAt / Sync / Close, and every vfs.FS operation
//   - (wal.Writer) Sync — AddRecord/Flush under the lock is the engine's
//     deliberate append-under-mutex design and stays legal
//   - (sstable.Writer) Add / Finish
//   - every method on a type from package net (Conn writes, Accept, ...)
//
// Intentional exceptions — version.Set.logMu is documented as held across
// MANIFEST I/O — carry a //ldclint:ignore mutexio <reason> directive.
//
// The order in which locks nest is not checked here: every engine lock is an
// internal/invariants wrapper whose Rank call declares its place, and the
// -tags invariants build panics on an inverted acquisition at run time.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var mutexioAnalyzer = &Analyzer{
	Name: "mutexio",
	Doc:  "reports filesystem sync and network I/O performed while a mutex is held",
	Run:  runMutexIO,
}

func runMutexIO(pass *Pass) {
	for _, body := range funcsOf(pass.Files) {
		m := &mutexWalker{pass: pass}
		m.walk(body.List, map[string]token.Pos{})
	}
}

type mutexWalker struct {
	pass *Pass
}

// lockMethod reports whether call is mutex bookkeeping: delta is +1 for
// Lock/RLock and -1 for Unlock/RUnlock; key is the receiver's expression key.
func (m *mutexWalker) lockMethod(call *ast.CallExpr) (key string, delta int, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	rt := recvType(m.pass.Info, call)
	if rt == nil || !isMutex(rt) {
		return "", 0, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return exprKey(m.pass.Fset, sel.X), +1, true
	case "Unlock", "RUnlock":
		return exprKey(m.pass.Fset, sel.X), -1, true
	}
	return "", 0, false
}

// isMutex covers the raw sync types and the invariants wrappers that
// replaced them on every ranked lock — the wrappers must stay in the model
// or converting a field would silently disable the analyzer on it.
func isMutex(t types.Type) bool {
	return typeFromPkg(t, "sync", "Mutex") || typeFromPkg(t, "sync", "RWMutex") ||
		typeFromPkg(t, "invariants", "Mutex") || typeFromPkg(t, "invariants", "RWMutex")
}

// ioCall describes why a call is I/O, or returns "" if it is not.
func (m *mutexWalker) ioCall(call *ast.CallExpr) string {
	recv := recvType(m.pass.Info, call)
	if recv == nil {
		return ""
	}
	name := calleeName(call)
	n := namedOf(recv)
	if n == nil || n.Obj().Pkg() == nil {
		return ""
	}
	pkg := n.Obj().Pkg().Path()
	typ := n.Obj().Name()
	switch {
	case pkgPathMatches(pkg, "vfs"):
		switch name {
		case "Write", "ReadAt", "Sync", "Close",
			"Create", "Open", "Remove", "Rename", "List", "MkdirAll", "Exists":
			return "(" + "vfs." + typ + ")." + name
		}
	case pkgPathMatches(pkg, "wal") && typ == "Writer" && name == "Sync":
		return "(wal.Writer).Sync"
	case pkgPathMatches(pkg, "sstable") && typ == "Writer" && (name == "Add" || name == "Finish"):
		return "(sstable.Writer)." + name
	case pkg == "net":
		// Only the methods that actually touch the socket; Addr/LocalAddr/
		// SetDeadline-style bookkeeping is in-memory or non-blocking.
		switch name {
		case "Read", "Write", "Close", "Accept":
			return "(net." + typ + ")." + name
		}
	}
	return ""
}

// walk processes a statement list with the given held-mutex set (key →
// Lock position) and returns the set at the list's fall-through exit.
// The map is mutated in place; callers that need the entry set afterwards
// pass a clone.
func (m *mutexWalker) walk(stmts []ast.Stmt, held map[string]token.Pos) map[string]token.Pos {
	for _, s := range stmts {
		held = m.walkStmt(s, held)
	}
	return held
}

func (m *mutexWalker) walkStmt(s ast.Stmt, held map[string]token.Pos) map[string]token.Pos {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, delta, ok := m.lockMethod(call); ok {
				if delta > 0 {
					held[key] = call.Pos()
				} else {
					delete(held, key)
				}
				return held
			}
		}
		m.checkCalls(s, held)

	case *ast.DeferStmt:
		// defer mu.Unlock() pins the region to function exit; the mutex
		// stays in the held set. Deferred I/O runs at an unknowable point
		// in the defer stack, so only its argument expressions (evaluated
		// now) are checked.
		if key, delta, ok := m.lockMethod(s.Call); ok && delta < 0 {
			_ = key // held until exit: nothing to update
			return held
		}
		for _, arg := range s.Call.Args {
			m.checkCalls(arg, held)
		}

	case *ast.GoStmt:
		// The spawned call runs concurrently, outside this lock region;
		// only argument evaluation happens here.
		for _, arg := range s.Call.Args {
			m.checkCalls(arg, held)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			held = m.walkStmt(s.Init, held)
		}
		m.checkCalls(s.Cond, held)
		bodyHeld := m.walk(s.Body.List, clonePos(held))
		elseHeld := held
		elseTerm := false
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			elseHeld = m.walk(e.List, clonePos(held))
			elseTerm = terminates(e.List)
		case *ast.IfStmt:
			elseHeld = m.walkStmt(e, clonePos(held))
			elseTerm = false
		}
		bodyTerm := terminates(s.Body.List)
		switch {
		case bodyTerm && elseTerm:
			return map[string]token.Pos{}
		case bodyTerm:
			return elseHeld
		case elseTerm:
			return bodyHeld
		default:
			return intersectPos(bodyHeld, elseHeld)
		}

	case *ast.ForStmt:
		if s.Init != nil {
			held = m.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			m.checkCalls(s.Cond, held)
		}
		body := m.walk(s.Body.List, clonePos(held))
		if s.Post != nil {
			m.walkStmt(s.Post, body)
		}
		// The loop may run zero times; only mutexes held on both the skip
		// and the iterate paths survive.
		return intersectPos(held, body)

	case *ast.RangeStmt:
		m.checkCalls(s.X, held)
		body := m.walk(s.Body.List, clonePos(held))
		return intersectPos(held, body)

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return m.walkCases(s, held)

	case *ast.BlockStmt:
		return m.walk(s.List, held)

	case *ast.LabeledStmt:
		return m.walkStmt(s.Stmt, held)

	default:
		m.checkCalls(s, held)
	}
	return held
}

// walkCases merges switch/select branches the same way if/else merges.
func (m *mutexWalker) walkCases(s ast.Stmt, held map[string]token.Pos) map[string]token.Pos {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			held = m.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			m.checkCalls(s.Tag, held)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held = m.walkStmt(s.Init, held)
		}
		m.checkCalls(s.Assign, held)
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	var exits []map[string]token.Pos
	for _, c := range body.List {
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				m.checkCalls(e, held)
			}
			if c.List == nil {
				hasDefault = true
			}
			list = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				m.walkStmt(c.Comm, clonePos(held))
			} else {
				hasDefault = true
			}
			list = c.Body
		}
		if terminates(list) {
			m.walk(list, clonePos(held))
			continue
		}
		exits = append(exits, m.walk(list, clonePos(held)))
	}
	if !hasDefault {
		exits = append(exits, held)
	}
	if len(exits) == 0 {
		return map[string]token.Pos{}
	}
	out := exits[0]
	for _, e := range exits[1:] {
		out = intersectPos(out, e)
	}
	return out
}

// checkCalls flags I/O calls syntactically inside n while held is nonempty.
func (m *mutexWalker) checkCalls(n ast.Node, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	callsIn(n, func(call *ast.CallExpr) {
		what := m.ioCall(call)
		if what == "" {
			return
		}
		// One report per call; pick the lexically smallest key so the
		// message is deterministic when several mutexes are held.
		var key string
		for k := range held {
			if key == "" || k < key {
				key = k
			}
		}
		m.pass.Reportf(call.Pos(),
			"call to %s while %q is held (Lock at %s); fsync and I/O must run outside the lock",
			what, key, m.pass.Fset.Position(held[key]))
	})
}

func clonePos(m map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func intersectPos(a, b map[string]token.Pos) map[string]token.Pos {
	out := map[string]token.Pos{}
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}
