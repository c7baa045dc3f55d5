package invariants

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// rankCall is one Rank(name, rank) call found in the source.
type rankCall struct {
	rank int
	dir  string // the calling file's directory, relative to the scanned root
	pos  token.Position
}

// scanLockCatalog parses the non-test Go files under root (skipping testdata)
// and returns every literal Rank call by lock name, with one message per
// breach of the catalog's rules: a struct field typed sync.Mutex or
// sync.RWMutex outside package invariants (the tracker never sees it), a
// leftover //ldclint:lockrank directive (the Rank call is the one declaration
// of a lock's place), a Rank call without a literal name and rank, two Rank
// calls that share a name or a rank, and a wrapper field count that differs
// from the Rank call count (a wrapper whose Rank is never called is
// untracked).
func scanLockCatalog(root string) (map[string]rankCall, []string, error) {
	fset := token.NewFileSet()
	calls := map[string]rankCall{}
	ranks := map[int]token.Position{}
	var problems []string
	wrappers, nCalls := 0, 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//ldclint:lockrank") {
					problems = append(problems, fmt.Sprintf("%s: leftover %s; the Rank call declares the lock", fset.Position(c.Pos()), c.Text))
				}
			}
		}
		syncName := importName(f, "sync")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					typ := field.Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					sel, ok := typ.(*ast.SelectorExpr)
					if !ok || (sel.Sel.Name != "Mutex" && sel.Sel.Name != "RWMutex") {
						continue
					}
					switch pkg, _ := sel.X.(*ast.Ident); {
					case pkg == nil:
					case pkg.Name == syncName && f.Name.Name != "invariants":
						problems = append(problems, fmt.Sprintf("%s: field of type sync.%s; use invariants.%[2]s with a Rank call",
							fset.Position(field.Pos()), sel.Sel.Name))
					case pkg.Name == "invariants":
						wrappers++
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Rank" || len(n.Args) != 2 {
					return true
				}
				nCalls++
				pos := fset.Position(n.Pos())
				nameLit, ok1 := n.Args[0].(*ast.BasicLit)
				rankLit, ok2 := n.Args[1].(*ast.BasicLit)
				if !ok1 || !ok2 || nameLit.Kind != token.STRING || rankLit.Kind != token.INT {
					problems = append(problems, fmt.Sprintf("%s: Rank takes a literal name and rank", pos))
					return true
				}
				name, _ := strconv.Unquote(nameLit.Value)
				r, _ := strconv.Atoi(rankLit.Value)
				if prev, dup := calls[name]; dup {
					problems = append(problems, fmt.Sprintf("%s: lock name %q already ranked at %s", pos, name, prev.pos))
				}
				if prev, dup := ranks[r]; dup {
					problems = append(problems, fmt.Sprintf("%s: rank %d already taken at %s", pos, r, prev))
				}
				calls[name], ranks[r] = rankCall{rank: r, dir: filepath.ToSlash(rel), pos: pos}, pos
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if wrappers != nCalls {
		problems = append(problems, fmt.Sprintf("%d invariants.Mutex/RWMutex fields but %d Rank calls; every wrapper needs one", wrappers, nCalls))
	}
	return calls, problems, nil
}

// TestLockCatalogIsTracked holds every engine lock to the runtime tracker:
// the non-test files under internal/ break none of scanLockCatalog's rules.
func TestLockCatalogIsTracked(t *testing.T) {
	calls, problems, err := scanLockCatalog("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
	t.Logf("%d ranked locks", len(calls))
}

// TestLockCatalogScanFires runs the scan over one small package per rule and
// requires the breach to be reported, so a regression that silences a rule
// cannot pass TestLockCatalogIsTracked unnoticed.
func TestLockCatalogScanFires(t *testing.T) {
	const wrapped = "package p\n\nimport \"repro/internal/invariants\"\n\n"
	for _, tc := range []struct {
		name, src, want string // want "" means the package is clean
	}{
		{"clean", wrapped + "type s struct{ mu invariants.Mutex }\n\nfunc newS() *s { x := &s{}; x.mu.Rank(\"p.s.mu\", 1); return x }\n", ""},
		{"sync mutex field", "package p\n\nimport \"sync\"\n\ntype s struct{ mu sync.Mutex }\n", "field of type sync.Mutex"},
		{"sync rwmutex pointer field", "package p\n\nimport \"sync\"\n\ntype s struct{ mu *sync.RWMutex }\n", "field of type sync.RWMutex"},
		{"renamed sync import", "package p\n\nimport gosync \"sync\"\n\ntype s struct{ mu gosync.Mutex }\n", "field of type sync.Mutex"},
		{"leftover directive", "package p\n\ntype s struct {\n\tmu int //ldclint:lockrank p.s.mu 1\n}\n", "leftover //ldclint:lockrank"},
		{"non-literal rank", wrapped + "type s struct{ mu invariants.Mutex }\n\nconst r = 1\n\nfunc newS() { var x s; x.mu.Rank(\"p.s.mu\", r) }\n", "literal name and rank"},
		{"duplicate name", wrapped + "type s struct{ a, b invariants.Mutex }\n\nfunc newS() { var x s; x.a.Rank(\"p.s.mu\", 1); x.b.Rank(\"p.s.mu\", 2) }\n", `lock name "p.s.mu" already ranked`},
		{"duplicate rank", wrapped + "type s struct{ a, b invariants.Mutex }\n\nfunc newS() { var x s; x.a.Rank(\"p.s.a\", 1); x.b.Rank(\"p.s.b\", 1) }\n", "rank 1 already taken"},
		{"wrapper without rank", wrapped + "type s struct{ mu invariants.RWMutex }\n", "1 invariants.Mutex/RWMutex fields but 0 Rank calls"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(tc.src), 0o644); err != nil {
				t.Fatal(err)
			}
			_, problems, err := scanLockCatalog(dir)
			if err != nil {
				t.Fatal(err)
			}
			if tc.want == "" {
				if len(problems) != 0 {
					t.Errorf("clean package reported %q", problems)
				}
				return
			}
			for _, p := range problems {
				if strings.Contains(p, tc.want) {
					return
				}
			}
			t.Errorf("problems %q, want one containing %q", problems, tc.want)
		})
	}
}

// catalogRow matches a row of DESIGN.md's lock-order table:
// | rank | `class` | `package` | ...
var catalogRow = regexp.MustCompile("^\\| *([0-9]+) *\\| *`([^`]+)` *\\| *`(internal/[a-z0-9]+)`")

// TestDesignCatalogMatchesRankCalls holds DESIGN.md's lock-order table to
// the code: every row names a lock whose Rank call carries the row's rank and
// sits in the row's package, and every Rank call under internal/ has a row.
func TestDesignCatalogMatchesRankCalls(t *testing.T) {
	calls, _, err := scanLockCatalog("..")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type row struct {
		rank   int
		class  string
		pkg    string
		lineNo int
	}
	var rows []row
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		m := catalogRow.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		r, _ := strconv.Atoi(m[1])
		rows = append(rows, row{rank: r, class: m[2], pkg: m[3], lineNo: n})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md has no lock-order catalog rows")
	}
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.class] = true
		t.Run(r.class, func(t *testing.T) {
			c, ok := calls[r.class]
			if !ok {
				t.Fatalf("DESIGN.md:%d names %s, but no Rank call declares it", r.lineNo, r.class)
			}
			if c.rank != r.rank {
				t.Errorf("DESIGN.md:%d ranks %s at %d, its Rank call at %s says %d", r.lineNo, r.class, r.rank, c.pos, c.rank)
			}
			if want := strings.TrimPrefix(r.pkg, "internal/"); c.dir != want {
				t.Errorf("DESIGN.md:%d puts %s in %s, its Rank call is in internal/%s", r.lineNo, r.class, r.pkg, c.dir)
			}
		})
	}
	var missing []string
	for name := range calls {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("Rank call %s at %s has no row in DESIGN.md's lock-order catalog", name, calls[name].pos)
	}
}

// importName is the name f refers to the package at path by ("" when f does
// not import it).
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if imp.Path.Value == strconv.Quote(path) {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return filepath.Base(path)
		}
	}
	return ""
}
