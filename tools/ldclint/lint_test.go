package main

// Fixture-driven analyzer regression tests: a stdlib-only analogue of
// golang.org/x/tools' analysistest. Each package under testdata/src is
// parsed and type-checked hermetically — fixtures import fake lookalikes of
// sync, net, wal, vfs, vlog, sstable and invariants that live in the same tree,
// so the tests need no compiled stdlib export data and no network.
//
// Expectations are `// want "regexp"` comments: every diagnostic reported on
// a line must match a want on that line, and every want must be matched.
// A want may target a nearby line with an offset — `// want(+2) "re"` — for
// diagnostics anchored to lines that cannot carry a trailing comment (e.g.
// malformed //ldclint:ignore directives, which would swallow the want text).

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestAnalyzersOnFixtures(t *testing.T) {
	pkgs := []string{
		"mutexio_fire", "mutexio_clean",
		"mutexio_wrapped_fire", "mutexio_wrapped_clean",
		"errclose_fire", "errclose_clean",
		"ignores",
	}
	for _, pkg := range pkgs {
		t.Run(pkg, func(t *testing.T) { runFixture(t, pkg) })
	}
}

// TestFirePackagesActuallyFire guards against a regression that silences an
// analyzer entirely while its fixture wants rot in lockstep: each seeded
// package must produce at least two findings from its own analyzer.
func TestFirePackagesActuallyFire(t *testing.T) {
	for _, tc := range []struct{ pkg, analyzer string }{
		{"mutexio_fire", "mutexio"},
		{"mutexio_wrapped_fire", "mutexio"},
		{"errclose_fire", "errclose"},
	} {
		diags := analyzeFixture(t, tc.pkg)
		n := 0
		for _, d := range diags {
			if strings.HasPrefix(d.Message, tc.analyzer+":") {
				n++
			}
		}
		if n < 2 {
			t.Errorf("%s: got %d %s findings, want at least 2", tc.pkg, n, tc.analyzer)
		}
	}
}

// TestCleanPackagesStaySilent asserts the clean fixtures produce nothing at
// all — the false-positive budget for sanctioned shapes is zero.
func TestCleanPackagesStaySilent(t *testing.T) {
	for _, pkg := range []string{
		"mutexio_clean", "mutexio_wrapped_clean", "errclose_clean",
	} {
		if diags := analyzeFixture(t, pkg); len(diags) != 0 {
			for _, d := range diags {
				t.Errorf("%s: unexpected %s: %s", pkg, d.Position, d.Message)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Fixture loading

// fixtureLoader parses and type-checks fixture packages on demand,
// resolving their imports recursively within testdata/src.
type fixtureLoader struct {
	fset *token.FileSet
	root string
	pkgs map[string]*fixturePkg
}

type fixturePkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

func newFixtureLoader(t *testing.T) *fixtureLoader {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return &fixtureLoader{fset: token.NewFileSet(), root: root, pkgs: map[string]*fixturePkg{}}
}

func (l *fixtureLoader) load(path string) (*fixturePkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fixture package %q: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture package %q has no Go files", path)
	}
	conf := types.Config{
		Importer: importerFunc(func(ip string) (*types.Package, error) {
			dep, err := l.load(ip)
			if err != nil {
				return nil, err
			}
			return dep.pkg, nil
		}),
	}
	info := newTypesInfo()
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking fixture %q: %w", path, err)
	}
	p := &fixturePkg{files: files, pkg: pkg, info: info}
	l.pkgs[path] = p
	return p, nil
}

func analyzeFixture(t *testing.T, path string) []Diagnostic {
	t.Helper()
	l := newFixtureLoader(t)
	p, err := l.load(path)
	if err != nil {
		t.Fatal(err)
	}
	return runAnalyzers(Analyzers, l.fset, p.files, p.pkg, p.info)
}

// ---------------------------------------------------------------------------
// Want-comment matching

var wantRe = regexp.MustCompile("// want(\\([+-][0-9]+\\))?((?: `[^`]*`| \"(?:[^\"\\\\]|\\\\.)*\")+)")
var wantArgRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type wantKey struct {
	file string
	line int
}

// collectWants scans a package's comments for want expectations, keyed by
// the line the expectation targets.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[wantKey][]*regexp.Regexp {
	t.Helper()
	wants := map[wantKey][]*regexp.Regexp{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				line := pos.Line
				if m[1] != "" {
					off, err := strconv.Atoi(strings.Trim(m[1], "()"))
					if err != nil {
						t.Fatalf("%s: bad want offset %q", pos, m[1])
					}
					line += off
				}
				for _, arg := range wantArgRe.FindAllString(m[2], -1) {
					var pattern string
					if arg[0] == '`' {
						pattern = arg[1 : len(arg)-1]
					} else {
						var err error
						pattern, err = strconv.Unquote(arg)
						if err != nil {
							t.Fatalf("%s: bad want string %s: %v", pos, arg, err)
						}
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pattern, err)
					}
					wants[wantKey{pos.Filename, line}] = append(wants[wantKey{pos.Filename, line}], re)
				}
			}
		}
	}
	return wants
}

// runFixture analyzes one package and reconciles diagnostics with wants.
func runFixture(t *testing.T, path string) {
	t.Helper()
	l := newFixtureLoader(t)
	p, err := l.load(path)
	if err != nil {
		t.Fatal(err)
	}
	diags := runAnalyzers(Analyzers, l.fset, p.files, p.pkg, p.info)
	wants := collectWants(t, l.fset, p.files)

	matched := map[wantKey][]bool{}
	for k, res := range wants {
		matched[k] = make([]bool, len(res))
	}
	for _, d := range diags {
		k := wantKey{d.Position.Filename, d.Position.Line}
		ok := false
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched[k][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s: %s", d.Position, d.Message)
		}
	}
	var keys []wantKey
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for i, re := range wants[k] {
			if !matched[k][i] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
}
