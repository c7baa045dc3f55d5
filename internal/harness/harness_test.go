package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/compaction"
	"repro/internal/ycsb"
)

// The harness tests run every exhibit at Quick scale, asserting basic shape
// properties rather than absolute numbers. Full-scale shapes are recorded in
// EXPERIMENTS.json and read in EXPERIMENTS.md.

// runExhibit measures the named exhibit at Quick scale (ops > 0 shortens it)
// and checks the row count.
func runExhibit(t *testing.T, name string, ops int64, wantRows int) Table {
	t.Helper()
	cfg := Quick()
	if ops > 0 {
		cfg.Ops = ops
	}
	i := slices.IndexFunc(Exhibits, func(e Exhibit) bool { return e.Name == name })
	if i < 0 {
		t.Fatalf("no exhibit %q", name)
	}
	tab, err := Run(Exhibits[i], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), wantRows)
	}
	return tab
}

// col reads the named column off a row.
func col(t *testing.T, tab Table, r Row, name string) float64 {
	t.Helper()
	i := slices.IndexFunc(tab.Columns, func(c Column) bool { return c.Name == name })
	if i < 0 {
		t.Fatalf("%s has no column %q", tab.Name, name)
	}
	return tab.Columns[i].Value(r)
}

func printed(tab Table) string {
	var buf bytes.Buffer
	tab.Print(&buf)
	return buf.String()
}

// TestEveryExhibitRunsQuick is the table's own check: every exhibit runs at
// Quick scale, and what it yields — rows, labels, cells, headlines, the
// printed table, the JSON record — agrees with what it declares. With no
// device latency a budget is reported, not enforced.
func TestEveryExhibitRunsQuick(t *testing.T) {
	cfg := Quick()
	gaps := regexp.MustCompile(`\s{2,}`) // tabwriter pads with two spaces or more; no name has two in a row
	var tables []Table
	for _, e := range Exhibits {
		tab, err := Run(e, cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		tables = append(tables, tab)
		if len(tab.Rows) == 0 || len(tab.Rows) != len(e.Grid(cfg)) {
			t.Errorf("%s: %d rows, grid declares %d", e.Name, len(tab.Rows), len(e.Grid(cfg)))
		}
		lines := strings.Split(printed(tab), "\n")
		want := slices.Clone(e.Labels)
		for _, c := range e.Columns {
			want = append(want, c.Name)
		}
		if got := gaps.Split(strings.TrimSpace(lines[0]), -1); !slices.Equal(got, want) {
			t.Errorf("%s: header %q, want the labels and columns %q", e.Name, got, want)
		}
		for i, r := range tab.Rows {
			if len(r.Labels) != len(e.Labels) || len(r.Cells) == 0 || len(r.M) != len(r.Cells) {
				t.Errorf("%s row %v: %d labels (want %d), %d cells, %d measurements", e.Name, r.Labels, len(r.Labels), len(e.Labels), len(r.Cells), len(r.M))
			}
			if !strings.HasPrefix(lines[1+i], r.Labels[0]) {
				t.Errorf("%s: printed row %d is %q, want it to start with %q", e.Name, i, lines[1+i], r.Labels[0])
			}
			for _, c := range e.Columns {
				if v := c.Value(r); math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s row %v: %s = %v", e.Name, r.Labels, c.Name, v)
				}
			}
		}
		heads := tab.Readings()
		if len(heads) != len(e.Headlines) || len(heads) == 0 {
			t.Fatalf("%s: %d headlines, declares %d", e.Name, len(heads), len(e.Headlines))
		}
		for i, h := range heads {
			if h.Name != e.Headlines[i].Name || strings.ContainsAny(h.Name, " \t") || math.IsNaN(h.Value) || math.IsInf(h.Value, 0) {
				t.Errorf("%s: headline %d = %+v, declared as %q", e.Name, i, h, e.Headlines[i].Name)
			}
			if (e.Headlines[i].AtLeast != 0) != (h.Verdict == "not evaluated") || h.Breached() {
				t.Errorf("%s: %s has verdict %q on a run without device latency", e.Name, h.Name, h.Verdict)
			}
		}
	}

	path := filepath.Join(t.TempDir(), "exhibits.json")
	if err := WriteJSON(path, cfg, tables); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Host struct {
			CPUs, GOMAXPROCS int
			Commit           string
			Config           Config
		}
		Exhibits []struct {
			Name    string
			Columns []string
			Rows    []struct {
				Labels []string
				Values []float64
			}
			Headlines []Reading
		}
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Host.CPUs == 0 || rec.Host.GOMAXPROCS == 0 || rec.Host.Commit == "" || rec.Host.Config.Ops != cfg.Ops || len(rec.Exhibits) != len(Exhibits) {
		t.Fatalf("host block %+v, %d exhibits", rec.Host, len(rec.Exhibits))
	}
	for i, e := range rec.Exhibits {
		if e.Name != Exhibits[i].Name || len(e.Rows) != len(tables[i].Rows) || len(e.Columns) != len(Exhibits[i].Columns) ||
			len(e.Rows[0].Values) != len(e.Columns) || len(e.Headlines) != len(Exhibits[i].Headlines) {
			t.Errorf("record %d (%s): %d rows, %d columns, %d headlines", i, e.Name, len(e.Rows), len(e.Columns), len(e.Headlines))
		}
	}
}

// TestBudgetVerdicts: a budget is enforced on a run with device latency and
// only there.
func TestBudgetVerdicts(t *testing.T) {
	three := func([]Row) float64 { return 3 }
	tab := Table{Config: Default(), Exhibit: Exhibit{Headlines: []Headline{
		{Name: "under", Value: three, AtLeast: 4}, {Name: "inside", Value: three, AtLeast: 3},
		{Name: "free", Value: three},
	}}}
	want := []string{"breached", "ok", ""}
	for i, h := range tab.Readings() {
		if h.Verdict != want[i] || h.Breached() != (want[i] == "breached") {
			t.Errorf("%s: verdict %q, want %q", h.Name, h.Verdict, want[i])
		}
	}
	tab.Config = Quick()
	for i, h := range tab.Readings() {
		if (h.Verdict == "not evaluated") != (i < 2) || h.Breached() {
			t.Errorf("%s without device latency: verdict %q", h.Name, h.Verdict)
		}
	}
}

func TestEnvLifecycle(t *testing.T) {
	c := Quick()
	c.Ops, c.KeySpace, c.ValueSize = 500, 200, 128
	m, err := Measure(loadRun(c, compaction.LDC, c.mix(ycsb.RWB)))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Phases) != 2 || m.Phases[0].Ops != 100 || m.Phases[1].Ops != 500 || m.Throughput <= 0 || m.All.Count != 500 {
		t.Errorf("measurement = %+v", m)
	}
	if m.Stats.Puts == 0 || m.FSBytes <= 0 {
		t.Errorf("closing readings missing: %d puts, %d bytes on the device", m.Stats.Puts, m.FSBytes)
	}
}

func TestRunTable1(t *testing.T) {
	tab := runExhibit(t, "table1", 0, 4)
	var sum float64
	for _, r := range tab.Rows {
		pct := col(t, tab, r, "Percent of Time")
		if pct < 0 || pct > 100 {
			t.Errorf("%s = %.1f%%", r.Labels[0], pct)
		}
		sum += pct
	}
	if sum < 99 || sum > 101 {
		t.Errorf("percentages sum to %.1f", sum)
	}
	if !strings.Contains(printed(tab), "DoCompactionWork") {
		t.Error("print missing module names")
	}
}

func TestRunFig1(t *testing.T) {
	tab := runExhibit(t, "fig1", 0, 1)
	if len(tab.Rows[0].M[0].Timeline) == 0 {
		t.Fatal("empty timeline")
	}
	if out := printed(tab); !strings.Contains(out, "fluctuation") || !strings.Contains(out, "t=0s") {
		t.Errorf("print missing the fluctuation factor or the series:\n%s", out)
	}
}

func TestRunFig7(t *testing.T) {
	tab := runExhibit(t, "fig7", 3000, len(fanouts))
	for _, r := range tab.Rows {
		if r.Labels[0] != "UDC" || r.Cells[0].Store.Policy != compaction.UDC || throughput(r) <= 0 {
			t.Errorf("row %v: policy %v, throughput %.0f", r.Labels, r.Cells[0].Store.Policy, throughput(r))
		}
	}
}

func TestRunFig8(t *testing.T) {
	tab := runExhibit(t, "fig8", 0, 2)
	for _, r := range tab.Rows {
		d := r.M[0].All
		if !(d.P90 <= d.P99 && d.P99 <= d.P999 && d.P999 <= d.P9999) {
			t.Errorf("%s percentiles not monotone: %+v", r.Labels[0], d)
		}
		if d.Count != 3*tab.Config.Ops {
			t.Errorf("%s: %d samples, want three trials of %d merged", r.Labels[0], d.Count, tab.Config.Ops)
		}
	}
}

func TestRunFig9(t *testing.T) {
	runExhibit(t, "fig9", 0, 6) // 3 workloads × 2 policies
}

func TestRunFig10a(t *testing.T) {
	tab := runExhibit(t, "fig10a", 3000, 10) // 5 workloads × 2 policies
	if len(tab.Readings()) != 5 {
		t.Errorf("improvements = %v", tab.Readings())
	}
}

func TestRunFig10b(t *testing.T) {
	runExhibit(t, "fig10b", 1500, 6)
}

func TestRunFig10c(t *testing.T) {
	tab := runExhibit(t, "fig10c", 3000, 10)
	// The write-only workload must show compaction I/O under UDC.
	if col(t, tab, find(tab.Rows, "WO", "UDC"), "compactWrite(MB)") == 0 {
		t.Error("WO/UDC shows no compaction writes")
	}
	// LDC's point: less compaction I/O for the same writes.
	if udc, ldc := compactionIO(find(tab.Rows, "WH", "UDC")), compactionIO(find(tab.Rows, "WH", "LDC")); ldc >= udc {
		t.Errorf("WH compaction I/O: LDC %.0f bytes, UDC %.0f", ldc, udc)
	}
}

func TestRunFig11(t *testing.T) {
	runExhibit(t, "fig11", 2000, 8) // 4 distributions × 2 policies
}

func TestRunFig12a(t *testing.T) {
	runExhibit(t, "fig12a", 2000, 5)
}

func TestRunFig12b(t *testing.T) {
	runExhibit(t, "fig12b", 1500, 2*len(fanouts))
}

func TestRunFig12c(t *testing.T) {
	runExhibit(t, "fig12c", 1500, 8)
}

func TestRunFig13BloomReducesBlockReads(t *testing.T) {
	tab := runExhibit(t, "fig13", 3000, 7)
	// Filter size must grow with bits/key; block reads must not grow.
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	if col(t, tab, last, "filterSize(KB/table)") <= col(t, tab, first, "filterSize(KB/table)") {
		t.Error("filter size not growing with bits/key")
	}
	if blockReads(last) > blockReads(first)*2 {
		t.Errorf("block reads grew with better filters: %.0f -> %.0f", blockReads(first), blockReads(last))
	}
}

func TestRunFig14(t *testing.T) {
	runExhibit(t, "fig14", 1500, 8)
}

func TestRunFig15(t *testing.T) {
	tab := runExhibit(t, "fig15", 2000, 8)
	for _, r := range tab.Rows {
		if space(r) <= 0 {
			t.Errorf("zero space for %v", r.Labels)
		}
	}
	if !strings.Contains(printed(tab), "space-overhead") {
		t.Error("print missing overhead lines")
	}
}
