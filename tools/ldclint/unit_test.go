package main

// Tests for the vettool unit protocol: which units are analyzed, which only
// get their facts file, and how a unit that does not parse or type-check is
// reported.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeUnit writes the Go sources and a vet config built from cfg into a
// fresh directory and returns the config's path. cfg.GoFiles and
// cfg.VetxOutput are filled in with paths inside that directory.
func writeUnit(t *testing.T, cfg vetConfig, sources map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range sources {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg.GoFiles = append(cfg.GoFiles, path)
	}
	if cfg.VetxOutput == "" {
		cfg.VetxOutput = filepath.Join(dir, "facts.vetx")
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgFile := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return cfgFile
}

// checkEmptyFacts fails unless the unit beside cfgFile left an empty facts
// file, which cmd/go requires after every invocation.
func checkEmptyFacts(t *testing.T, cfgFile string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(filepath.Dir(cfgFile), "facts.vetx"))
	if err != nil {
		t.Fatalf("facts file: %v", err)
	}
	if len(data) != 0 {
		t.Errorf("facts file holds %d bytes, want none", len(data))
	}
}

const (
	cleanSrc  = "package p\n\nfunc Add(a, b int) int { return a + b }\n"
	brokenSrc = "package p\n\nfunc broken( {\n"
	typeErr   = "package p\n\nfunc f() int { return \"not an int\" }\n"
	importSrc = "package p\n\nimport \"repro/internal/absent\"\n\nvar _ = absent.X\n"
)

// TestRunUnitSkipsUnitsWithNothingToReport: a dependency-only unit, a
// standard-library unit and unsafe write the empty facts file and return
// without parsing — the sources handed to them do not even parse.
func TestRunUnitSkipsUnitsWithNothingToReport(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  vetConfig
	}{
		{"vetx only", vetConfig{ImportPath: "repro/p", VetxOnly: true}},
		{"standard library", vetConfig{ImportPath: "strings", Standard: map[string]bool{"strings": true}}},
		{"unsafe", vetConfig{ImportPath: "unsafe"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfgFile := writeUnit(t, tc.cfg, map[string]string{"p.go": brokenSrc})
			diags, err := runUnit(cfgFile, Analyzers)
			if err != nil || len(diags) != 0 {
				t.Fatalf("runUnit = %v, %v; want no diagnostics and no error", diags, err)
			}
			checkEmptyFacts(t, cfgFile)
		})
	}
}

// TestRunUnitAnalyzesPackage: a unit to report on is parsed, type-checked
// and analyzed, and still leaves the facts file cmd/go waits for.
func TestRunUnitAnalyzesPackage(t *testing.T) {
	cfgFile := writeUnit(t, vetConfig{ImportPath: "repro/p", Compiler: "gc"}, map[string]string{"p.go": cleanSrc})
	diags, err := runUnit(cfgFile, Analyzers)
	if err != nil || len(diags) != 0 {
		t.Fatalf("runUnit = %v, %v; want no diagnostics and no error", diags, err)
	}
	checkEmptyFacts(t, cfgFile)
}

// TestRunUnitNoFactsPath: a config that names no facts file gets none.
func TestRunUnitNoFactsPath(t *testing.T) {
	dir := t.TempDir()
	cfgFile := filepath.Join(dir, "vet.cfg")
	if err := os.WriteFile(cfgFile, []byte(`{"ImportPath":"repro/p","VetxOnly":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if diags, err := runUnit(cfgFile, Analyzers); err != nil || len(diags) != 0 {
		t.Fatalf("runUnit = %v, %v; want no diagnostics and no error", diags, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries, want only the config", len(entries))
	}
}

// TestRunUnitFailures: a unit that cannot be read, parsed, type-checked or
// resolved is an error naming the cause, unless the config asks to succeed
// on type-check failure.
func TestRunUnitFailures(t *testing.T) {
	for _, tc := range []struct {
		name, src, want string
	}{
		{"parse error", brokenSrc, "expected"},
		{"type error", typeErr, "typechecking repro/p"},
		{"unresolved import", importSrc, `can't resolve import "repro/internal/absent"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := vetConfig{ImportPath: "repro/p", Compiler: "gc"}
			cfgFile := writeUnit(t, cfg, map[string]string{"p.go": tc.src})
			if _, err := runUnit(cfgFile, Analyzers); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("runUnit error = %v, want one containing %q", err, tc.want)
			}
			cfg.SucceedOnTypecheckFailure = true
			cfgFile = writeUnit(t, cfg, map[string]string{"p.go": tc.src})
			if diags, err := runUnit(cfgFile, Analyzers); err != nil || len(diags) != 0 {
				t.Errorf("with SucceedOnTypecheckFailure: runUnit = %v, %v; want nothing", diags, err)
			}
		})
	}
	t.Run("missing config", func(t *testing.T) {
		if _, err := runUnit(filepath.Join(t.TempDir(), "absent.cfg"), Analyzers); !os.IsNotExist(err) {
			t.Errorf("runUnit error = %v, want not-exist", err)
		}
	})
	t.Run("malformed config", func(t *testing.T) {
		cfgFile := filepath.Join(t.TempDir(), "vet.cfg")
		if err := os.WriteFile(cfgFile, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := runUnit(cfgFile, Analyzers); err == nil || !strings.Contains(err.Error(), "parsing vet config") {
			t.Errorf("runUnit error = %v, want a config parse error", err)
		}
	})
}
