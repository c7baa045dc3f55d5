// Command ldclint is a repo-specific vettool: it machine-checks the
// concurrency and resource-handling invariants this engine's correctness
// depends on, so that rules which previously lived in prose (DESIGN.md,
// review comments) fail `make ci` instead of waiting for the race detector
// to catch one interleaving.
//
// It is run by the go tool:
//
//	go build -o bin/ldclint ./tools/ldclint
//	go vet -vettool=bin/ldclint ./...
//
// Two analyzers are registered (see their files for the precise rules), the
// two with a recorded catch in this engine:
//
//	mutexio  — fsync/network I/O performed while a mutex is held
//	errclose — dropped errors from Close/Sync/Flush on WAL/SSTable/net/vfs types
//
// Lock order has a single checker, and it is not here: the -tags invariants
// build's lock-rank tracker in internal/invariants.
//
// A finding can be suppressed with a directive comment on the flagged line
// or the line above it:
//
//	//ldclint:ignore <analyzer> <reason>
//
// The reason is mandatory; directives without one are themselves reported,
// as are stale directives that no longer suppress anything.
//
// The command speaks the cmd/go vettool protocol (the same one
// golang.org/x/tools' unitchecker implements) using only the standard
// library: it answers -V=full with a content hash for the build cache,
// answers -flags with its (empty) flag list, and otherwise expects a single
// vet config file argument describing one package to analyze.
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	progname := filepath.Base(os.Args[0])
	args := os.Args[1:]

	if len(args) == 1 && args[0] == "-V=full" {
		// cmd/go fingerprints the tool for its build cache with the output
		// of -V=full; hashing our own executable makes rebuilds of the tool
		// invalidate cached vet results, exactly like unitchecker does.
		fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, selfHash())
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		// cmd/go asks for the tool's flag set as JSON; we define none.
		fmt.Println("[]")
		return
	}
	if len(args) != 1 || args[0] == "help" || args[0][0] == '-' {
		fmt.Fprintf(os.Stderr, "usage: %s vet.cfg\n(%s is a vettool; run it via go vet -vettool)\n", progname, progname)
		os.Exit(1)
	}

	diags, err := runUnit(args[0], Analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", d.Position, d.Message)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

// selfHash hashes the running executable (best effort: a fixed string keeps
// the protocol working even if the binary cannot be reopened).
func selfHash() []byte {
	f, err := os.Open(os.Args[0])
	if err != nil {
		return []byte("unknown")
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return []byte("unknown")
	}
	return h.Sum(nil)
}
